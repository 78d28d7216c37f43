from dataclasses import replace
import json
import re

import numpy as np
import pytest

from conftest import small_model

from eigendecay import model as model_module, train
from eigendecay.data import gen_two_gaussians, gen_xor
from eigendecay.model import forward, init_mlp, model_params
from eigendecay.objectives import LayerPenalty, RegularizerSpec
from eigendecay.train import (
    DivergenceError,
    EarlyStopping,
    TrainConfig,
    evaluate,
    grid_search,
    save_history,
    sgd_train,
    sgd_train_runs,
)


def _blobs(seed, n=100, spread=1.5):
    return gen_two_gaussians(
        n, centers=((-spread, 0.0), (spread, 0.0)), sigma=0.5, seed=seed
    )


class TestConfigs:
    def test_patience_validated(self):
        with pytest.raises(ValueError):
            EarlyStopping(enabled=True, patience=0)

    def test_validation_fraction_validated(self):
        with pytest.raises(ValueError):
            EarlyStopping(validation_fraction=1.0)

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)


class TestSgdTrain:
    def test_zero_learning_rate_is_a_no_op(self):
        ds = _blobs(0, n=40)
        model = small_model(seed=1)
        before = [p.copy() for p in model_params(model)]
        _, history = sgd_train(
            model, ds, "mse", RegularizerSpec.none(2, 1),
            TrainConfig(learning_rate=0.0, max_epochs=5, seed=0),
        )
        for p, q in zip(model_params(model), before):
            assert np.array_equal(p, q)
        objectives = [r.train_objective for r in history.epochs]
        assert len(set(objectives)) == 1

    def test_separable_data_reaches_full_accuracy(self):
        ds = gen_two_gaussians(100, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.5, seed=2)
        model = small_model(dims=(2, 8, 2), seed=0)
        sgd_train(model, ds, "mse", RegularizerSpec.none(2, 1),
                  TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=200, seed=1))
        assert evaluate(model, ds)["accuracy"] == 1.0

    def test_seeded_runs_bit_identical(self):
        def run():
            ds = _blobs(5, n=60)
            model = small_model(dims=(2, 6, 2), seed=7)
            reg = RegularizerSpec(
                (LayerPenalty("eigen_decay", 0.01), LayerPenalty()), (0.2,)
            )
            cfg = TrainConfig(
                learning_rate=0.3, batch_size=8, max_epochs=20, seed=11,
                early_stopping=EarlyStopping(True, patience=5, validation_fraction=0.2),
            )
            return sgd_train(model, ds, "mse", reg, cfg)[1]

        h1, h2 = run(), run()
        assert h1.records() == h2.records()
        assert h1.best_epoch == h2.best_epoch

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_epoch(self):
        ds = _blobs(3, n=40)
        model = small_model(seed=2)
        with pytest.raises(DivergenceError) as info:
            sgd_train(model, ds, "mse", RegularizerSpec.none(2, 1),
                      TrainConfig(learning_rate=1e6, max_epochs=10, seed=0))
        assert info.value.epoch >= 0

    def test_unknown_loss_kind_rejected_before_training(self):
        ds = _blobs(3, n=40)
        model = small_model(seed=2)
        before = [p.copy() for p in model_params(model)]
        with pytest.raises(ValueError, match="huber"):
            sgd_train(model, ds, "huber", RegularizerSpec.none(2, 1),
                      TrainConfig(learning_rate=0.1, max_epochs=2, seed=0))
        for p, q in zip(model_params(model), before):
            assert np.array_equal(p, q)

    def test_zero_initialised_eigen_decay_layer_trains(self):
        ds = _blobs(4, n=40)
        model = small_model(dims=(2, 4, 2), seed=3)
        model.hidden[0].weights[...] = 0.0
        reg = RegularizerSpec(
            (LayerPenalty("eigen_decay", 0.01), LayerPenalty()), (0.0,)
        )
        _, history = sgd_train(model, ds, "mse", reg,
                               TrainConfig(learning_rate=0.3, max_epochs=3, seed=0))
        assert len(history.epochs) == 3
        assert np.any(model.hidden[0].weights)
        assert all(np.isfinite(r.train_objective) for r in history.epochs)

    def test_early_stopping_returns_best_validation_params(self):
        ds = _blobs(7, n=120)
        model = small_model(dims=(2, 6, 2), seed=3)
        cfg = TrainConfig(
            learning_rate=0.4, batch_size=8, max_epochs=60, seed=13,
            early_stopping=EarlyStopping(True, patience=6, validation_fraction=0.25),
        )
        model, history = sgd_train(model, ds, "mse", RegularizerSpec.none(2, 1), cfg)
        recorded = [r.val_loss for r in history.epochs]
        best = history.epochs[history.best_epoch].val_loss
        assert best == min(recorded)
        # the restored parameters reproduce the best recorded validation loss
        from eigendecay.data import split_indices
        from eigendecay.model import forward_batch
        from eigendecay.objectives import loss_batch

        _, rows = split_indices(len(ds), 1.0 - cfg.early_stopping.validation_fraction, cfg.seed)
        val = ds.subset(rows)
        _, _, Yhat = forward_batch(model, val.features)
        assert loss_batch("mse", Yhat, val.encoded) == pytest.approx(best, rel=1e-12)

    def test_lambda_trajectory_recorded_every_epoch(self):
        ds = _blobs(9, n=40)
        model = small_model(seed=4)
        _, history = sgd_train(model, ds, "mse", RegularizerSpec.none(2, 1),
                               TrainConfig(learning_rate=0.2, max_epochs=7, seed=1))
        assert len(history.epochs) == 7
        for rec in history.epochs:
            assert len(rec.lambda_dom) == 2
            assert all(lam >= 0 for lam in rec.lambda_dom)

    def test_each_layer_lambda_computed_once_per_epoch(self, monkeypatch):
        # each epoch end computes each (member, layer) lambda once: an
        # eigen-decay penalty value reads it, and the history records it
        from eigendecay import objectives, train
        from eigendecay.linalg import gram

        calls, grams, weights = [], [], []
        original = objectives.power_dominant_eigen
        epoch_end = train._epoch_end

        def counting(m, *args, **kwargs):
            calls.append(m.shape)
            grams.extend((len(weights), g.tobytes()) for g in m)
            return original(m, *args, **kwargs)

        def recording(members, params, *args):
            weights.append([w.copy() for w in params[0::2]])
            return epoch_end(members, params, *args)

        monkeypatch.setattr(objectives, "power_dominant_eigen", counting)
        ds = _blobs(9, n=40)
        model = small_model(dims=(2, 5, 2), seed=4)
        reg = RegularizerSpec((LayerPenalty("eigen_decay", 0.01), LayerPenalty()), (0.0,))
        cfg = TrainConfig(learning_rate=0.2, max_epochs=6, seed=1)
        _, history = sgd_train(model, ds, "mse", reg, cfg)
        assert len(history.epochs) == 6
        assert calls == [(1, 5, 5), (1, 2, 2)] * 6

        # three members, one of them with a 5-step eigen-decay layer: each
        # epoch end iterates on each member's gram of each layer once
        grams.clear()
        monkeypatch.setattr(train, "_epoch_end", recording)
        regs = [reg, RegularizerSpec.none(2, 1),
                RegularizerSpec((LayerPenalty("eigen_decay", 0.01, 5), LayerPenalty()),
                                (0.0,))]
        members = [train._member(small_model(dims=(2, 5, 2), seed=s), ds, None, r, cfg)
                   for s, r in enumerate(regs)]
        results = train._sgd_stack(members, ds, "mse")
        assert all(len(r.epochs) == 6 for r in results)
        assert len(weights) == 6
        want = [(e + 1, gram(w[j]).tobytes())
                for e, ws in enumerate(weights) for w in ws for j in range(3)]
        assert sorted(grams) == sorted(want)

    def test_members_after_a_leaving_member_keep_their_solo_bits(self):
        # member 0's penalty gradient fails in epoch 1 and it leaves the
        # stack; the stack regroups the specs of the members after it, so
        # each still trains under its own penalties, with sgd_train's bits.
        # The last member has no penalty, so a stale grouping would still
        # index inside the smaller stack, and put the wrong penalties on
        # members 1 and 2.
        from eigendecay import train

        ds = _blobs(9, n=20)
        cfg = TrainConfig(learning_rate=0.2, batch_size=8, max_epochs=6, seed=1)
        regs = [
            RegularizerSpec((LayerPenalty("eigen_decay", 0.05), LayerPenalty("l2", 1e20)),
                            (0.0,)),
            RegularizerSpec((LayerPenalty("eigen_decay", 0.02), LayerPenalty("l1", 1e-3)),
                            (0.0,)),
            RegularizerSpec((LayerPenalty("l2", 1e-3), LayerPenalty()), (0.0,)),
            RegularizerSpec.none(2, 1),
        ]
        models = [small_model(dims=(2, 5, 2), seed=s) for s in range(len(regs))]
        members = [train._member(m, ds, None, r, cfg) for m, r in zip(models, regs)]
        with np.errstate(all="ignore"):
            results = train._sgd_stack(members, ds, "mse")
        assert isinstance(results[0], DivergenceError) and results[0].epoch == 1
        for j, (model, reg, result) in enumerate(zip(models, regs, results)):
            alone = small_model(dims=(2, 5, 2), seed=j)
            with np.errstate(all="ignore"):
                if j == 0:
                    with pytest.raises(DivergenceError, match=re.escape(str(result))):
                        sgd_train(alone, ds, "mse", reg, cfg)
                else:
                    _, history = sgd_train(alone, ds, "mse", reg, cfg)
                    assert result.records() == history.records()
            for got, want in zip(model_params(model), model_params(alone)):
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_each_spec_checked_once_per_member(self, monkeypatch):
        # train._member checks each spec; the stacked steps and epoch ends
        # do not check it again
        from eigendecay import train

        checked = []
        original = RegularizerSpec.check_against

        def counting(spec, model):
            checked.append(spec)
            return original(spec, model)

        monkeypatch.setattr(RegularizerSpec, "check_against", counting)
        ds = _blobs(9, n=40)
        cfg = TrainConfig(learning_rate=0.2, max_epochs=3, seed=1)
        regs = [RegularizerSpec((LayerPenalty("eigen_decay", 0.01), LayerPenalty("l2", 1e-3)),
                                (0.1,)),
                RegularizerSpec.none(2, 1)]
        members = [train._member(small_model(dims=(2, 5, 2), seed=s), ds, None, r, cfg)
                   for s, r in enumerate(regs)]
        assert checked == regs
        results = train._sgd_stack(members, ds, "mse")
        assert all(len(r.epochs) == 3 for r in results)
        assert checked == regs

    def test_empty_dataset_rejected(self):
        model = small_model()
        ds = gen_xor(4, seed=0).subset([])
        with pytest.raises(ValueError):
            sgd_train(model, ds, "mse", RegularizerSpec.none(2, 1),
                      TrainConfig(learning_rate=0.1))

    def test_momentum_changes_trajectory_and_still_trains(self):
        def run(momentum):
            ds = _blobs(6, n=80)
            model = small_model(dims=(2, 6, 2), seed=2)
            _, history = sgd_train(
                model, ds, "mse", RegularizerSpec.none(2, 1),
                TrainConfig(learning_rate=0.3, batch_size=16, max_epochs=40,
                            seed=4, momentum=momentum),
            )
            return model, history

        plain_model, plain_hist = run(0.0)
        mom_model, mom_hist = run(0.9)
        assert plain_hist.records() != mom_hist.records()
        assert mom_hist.epochs[-1].train_loss < mom_hist.epochs[0].train_loss
        assert evaluate(mom_model, _blobs(6, n=80))["accuracy"] >= 0.95


def _history_bits(history):
    """Every float a TrainHistory's records hold, as int64 views (nan for
    the val_loss that early stopping off leaves None)."""
    rows = [[r.epoch, r.train_objective, r.train_loss,
             np.nan if r.val_loss is None else r.val_loss, *r.lambda_dom]
            for r in history.epochs]
    return np.array(rows, dtype=float).view(np.int64)


def _assert_runs_train_as_alone(make_runs, loss_kind="mse"):
    """Trains make_runs()'s runs with one sgd_train_runs call and a fresh
    copy of each with its own sgd_train; every history record and final
    parameter must agree bit for bit. Returns the solo histories."""
    together = sgd_train_runs(make_runs(), loss_kind)
    alone = [sgd_train(model, ds, loss_kind, reg, cfg) for model, ds, reg, cfg in make_runs()]
    assert len(together) == len(alone)
    for (model, history), (solo_model, solo_history) in zip(together, alone):
        np.testing.assert_array_equal(_history_bits(history), _history_bits(solo_history))
        assert history.best_epoch == solo_history.best_epoch
        for p, q in zip(model_params(model), model_params(solo_model)):
            np.testing.assert_array_equal(p.view(np.int64), q.view(np.int64))
    return [history for _, history in alone]


def _reg(hidden, out=LayerPenalty(), dropout=0.0):
    return RegularizerSpec((hidden, out), (dropout,))


# each run's penalties and dropout rate: eigen decay (C = 0 among them), l1
# and l2, and dropout next to runs without it, at the same and other seeds
_MIXED = [
    _reg(LayerPenalty("eigen_decay", 0.01)),
    _reg(LayerPenalty("eigen_decay", 0.0), LayerPenalty("eigen_decay", 4e-3, 5)),
    _reg(LayerPenalty("l1", 1e-3), dropout=0.2),
    _reg(LayerPenalty()),
    _reg(LayerPenalty("l2", 2e-3), dropout=0.2),
    _reg(LayerPenalty("eigen_decay", 0.02), dropout=0.3),
]

# what makes run 1 of three unable to train with the others: (its slot,
# the new value given the runs, the error's message)
_UNSTACKABLE = {
    "model_twice": (0, lambda runs: runs[0][0], "only one run"),
    "dataset_features": (1, lambda runs: gen_two_gaussians(
        20, centers=((-1.0, 0.0, 0.5), (1.0, 0.0, -0.5)), seed=1), "widths"),
    "dataset_classes": (1, lambda runs: gen_two_gaussians(
        20, centers=((-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)), seed=1), "widths"),
}


@pytest.fixture
def stacks(monkeypatch):
    """The models of each _sgd_stack call's members, one list per call."""
    calls = []
    original = train._sgd_stack

    def spy(members, *args):
        calls.append([m.model for m in members])
        return original(members, *args)

    monkeypatch.setattr(train, "_sgd_stack", spy)
    return calls


def _run_stacks(stacks, runs):
    """The stacks that trained runs' models, as lists of run indices."""
    run_of = {id(run[0]): k for k, run in enumerate(runs)}
    return [[run_of[id(m)] for m in stack] for stack in stacks if id(stack[0]) in run_of]


class TestSgdTrainRuns:
    @pytest.mark.parametrize("momentum", [0.0, 0.6])
    def test_distinct_seeds_and_datasets(self, momentum):
        # six runs over three seeds, each seed with its own dataset
        def runs():
            out = []
            for k, reg in enumerate(_MIXED):
                seed = k // 2
                cfg = TrainConfig(learning_rate=0.4, batch_size=8, max_epochs=6, seed=seed,
                                  momentum=momentum)
                out.append((small_model(dims=(2, 5, 2), seed=10 + k), datasets[seed], reg,
                            cfg))
            return out

        datasets = [_blobs(seed, n=25) for seed in range(3)]
        _assert_runs_train_as_alone(runs)

    def test_one_shared_dataset(self):
        ds = _blobs(4, n=30)

        def runs():
            return [(small_model(dims=(2, 5, 2), seed=k), ds, reg,
                     TrainConfig(learning_rate=0.3, batch_size=16, max_epochs=5, seed=k % 3))
                    for k, reg in enumerate(_MIXED)]

        _assert_runs_train_as_alone(runs, "binary_cross_entropy")

    def test_early_stopping_follows_each_runs_seed(self):
        # one dataset for all runs: only the seed picks each run's
        # validation split, permutations and patience clock
        ds = _blobs(8, n=40)

        def runs():
            return [(small_model(dims=(2, 6, 2), seed=3), ds, reg,
                     TrainConfig(learning_rate=0.6, batch_size=8, max_epochs=40, seed=seed,
                                 early_stopping=EarlyStopping(True, patience=2,
                                                              validation_fraction=0.25)))
                    for seed in range(4) for reg in (_MIXED[0], _MIXED[2])]

        histories = _assert_runs_train_as_alone(runs)
        assert len({len(h.epochs) for h in histories}) > 1
        assert len({h.best_epoch for h in histories}) > 1
        assert all(len(h.epochs) < 40 for h in histories)

    def test_runs_beyond_the_stack_cap_train_in_run_order(self, monkeypatch, stacks):
        # 2-5-2 at batch 8: the largest per-step array is the 8 x 5 batch
        # of hidden activations, so this budget stacks two members
        monkeypatch.setattr(model_module, "STACK_FLOATS", 2 * 8 * 5)
        datasets = [_blobs(seed, n=20) for seed in range(5)]
        made = []

        def runs():
            made.append([(small_model(dims=(2, 5, 2), seed=seed), datasets[seed], reg,
                          TrainConfig(learning_rate=0.4, batch_size=8, max_epochs=4,
                                      seed=seed))
                         for seed, reg in enumerate(_MIXED[:5])])
            return made[-1]

        _assert_runs_train_as_alone(runs)
        assert _run_stacks(stacks, made[0]) == [[0, 1], [2, 3], [4]]

    def test_runs_of_other_lengths_shapes_and_configs(self, stacks):
        # runs 1-7 each differ from run 0 in one way: dataset length, hidden
        # width (and dropout), activation (on a third dataset length),
        # learning rate, momentum, epoch budget and early stopping; runs
        # 8-10 repeat runs 0, 2 and 1 at other seeds, so each pair trains in
        # one stack
        datasets = [_blobs(0, n=25), _blobs(1, n=18), _blobs(2, n=21)]
        base = TrainConfig(learning_rate=0.4, batch_size=8, max_epochs=6, seed=0)
        es = EarlyStopping(True, patience=2, validation_fraction=0.25)
        made = []

        def runs():
            spec = [
                ((2, 5, 2), "sigmoid", 0, _MIXED[0], base),
                ((2, 5, 2), "sigmoid", 1, _MIXED[1], replace(base, seed=1)),
                ((2, 7, 2), "sigmoid", 0, _MIXED[2], replace(base, seed=2)),
                ((2, 5, 2), "tanh", 2, _MIXED[3], base),
                ((2, 5, 2), "sigmoid", 0, _MIXED[4], replace(base, learning_rate=0.2)),
                ((2, 5, 2), "sigmoid", 0, _MIXED[5], replace(base, momentum=0.6)),
                ((2, 5, 2), "sigmoid", 0, _MIXED[0], replace(base, max_epochs=9)),
                ((2, 5, 2), "sigmoid", 1, _MIXED[2], replace(base, early_stopping=es)),
                ((2, 5, 2), "sigmoid", 0, _MIXED[5], replace(base, seed=3)),
                ((2, 7, 2), "sigmoid", 0, _MIXED[0], replace(base, seed=1)),
                ((2, 5, 2), "sigmoid", 1, _MIXED[4], replace(base, seed=2)),
            ]
            made.append([(small_model(dims, activation, seed=20 + k), datasets[d], reg, cfg)
                         for k, (dims, activation, d, reg, cfg) in enumerate(spec)])
            return made[-1]

        _assert_runs_train_as_alone(runs)
        assert _run_stacks(stacks, made[0]) == [[0, 8], [1, 10], [2, 9], [3], [4], [5], [6],
                                                [7]]

    def test_a_full_stack_trains_before_earlier_open_ones(self, monkeypatch, stacks):
        # two members of 2-5-2 at batch 8 fill a stack, and one of 2-6-2:
        # runs 1 and 2 fill theirs first, run 3 fills its own, and run 0
        # waits for run 4, which shares its epoch budget
        monkeypatch.setattr(model_module, "STACK_FLOATS", 2 * 8 * 5)
        ds = _blobs(3, n=20)
        cfg = TrainConfig(learning_rate=0.4, batch_size=8, max_epochs=4, seed=0)
        made = []

        def runs():
            made.append([
                (small_model(dims=(2, 5, 2), seed=0), ds, _MIXED[0], replace(cfg, max_epochs=5)),
                (small_model(dims=(2, 5, 2), seed=1), ds, _MIXED[1], cfg),
                (small_model(dims=(2, 5, 2), seed=2), ds, _MIXED[2], replace(cfg, seed=2)),
                (small_model(dims=(2, 6, 2), seed=3), ds, _MIXED[3], cfg),
                (small_model(dims=(2, 5, 2), seed=4), ds, _MIXED[4],
                 replace(cfg, max_epochs=5, seed=4)),
            ])
            return made[-1]

        _assert_runs_train_as_alone(runs)
        assert _run_stacks(stacks, made[0]) == [[1, 2], [3], [0, 4]]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_the_first_divergent_run_raises_its_solo_error(self):
        # run 1 diverges in epoch 3 and run 2 in epoch 1; run order decides
        ds = _blobs(9, n=20)
        regs = [_MIXED[0], _reg(LayerPenalty("l2", 0.05), LayerPenalty("l2", 1e10)),
                _reg(LayerPenalty("eigen_decay", 0.05), LayerPenalty("l2", 1e20))]

        def runs():
            return [(small_model(dims=(2, 5, 2), seed=seed), ds, reg,
                     TrainConfig(learning_rate=0.2, batch_size=8, max_epochs=6, seed=seed))
                    for seed, reg in enumerate(regs)]

        with pytest.raises(DivergenceError) as solo:
            model, ds_, reg, cfg = runs()[1]
            sgd_train(model, ds_, "mse", reg, cfg)
        with pytest.raises(DivergenceError) as got:
            sgd_train_runs(runs(), "mse")
        assert (got.value.epoch, str(got.value)) == (solo.value.epoch, str(solo.value))
        assert got.value.epoch == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_divergence_waits_for_earlier_runs_in_other_stacks(self, monkeypatch, stacks):
        # runs 1 and 2 fill their stack and train first, and run 1 diverges
        # in epoch 1; run 0, alone in a stack of its own epoch budget,
        # trains last and diverges in epoch 3, and its error is raised
        monkeypatch.setattr(model_module, "STACK_FLOATS", 2 * 8 * 5)
        ds = _blobs(9, n=20)
        cfg = TrainConfig(learning_rate=0.2, batch_size=8, max_epochs=6, seed=0)
        regs = [_reg(LayerPenalty("l2", 0.05), LayerPenalty("l2", 1e10)),
                _reg(LayerPenalty("eigen_decay", 0.05), LayerPenalty("l2", 1e20)),
                _MIXED[0]]
        configs = [replace(cfg, max_epochs=8), cfg, replace(cfg, seed=2)]

        def runs():
            return [(small_model(dims=(2, 5, 2), seed=k), ds, reg, c)
                    for k, (reg, c) in enumerate(zip(regs, configs))]

        solo = []
        for model, ds_, reg, c in runs()[:2]:
            with pytest.raises(DivergenceError) as raised:
                sgd_train(model, ds_, "mse", reg, c)
            solo.append((raised.value.epoch, str(raised.value)))
        assert [epoch for epoch, _ in solo] == [3, 1]
        made = runs()
        with pytest.raises(DivergenceError) as got:
            sgd_train_runs(made, "mse")
        assert (got.value.epoch, str(got.value)) == solo[0]
        assert _run_stacks(stacks, made) == [[1, 2], [0]]

    @pytest.mark.parametrize("case", list(_UNSTACKABLE))
    def test_runs_that_cannot_stack_are_rejected(self, case):
        slot, value, message = _UNSTACKABLE[case]
        runs = [[small_model(dims=(2, 5, 2), seed=seed), _blobs(seed, n=20),
                 RegularizerSpec.none(2, 1), TrainConfig(learning_rate=0.1, seed=seed)]
                for seed in range(3)]
        runs[1][slot] = value(runs)
        before = [[p.copy() for p in model_params(run[0])] for run in runs]
        with pytest.raises(ValueError, match=message):
            sgd_train_runs([tuple(run) for run in runs], "mse")
        for run, params in zip(runs, before):
            for p, q in zip(model_params(run[0]), params):
                assert np.array_equal(p, q)

    def test_no_runs_train_nothing(self):
        assert sgd_train_runs([], "mse") == []


class TestEvaluate:
    def test_constant_predictor_on_balanced_set(self):
        # zero weights with a biased output row always predict class 0
        model = small_model(seed=0)
        for layer in model.layers:
            layer.weights[:] = 0.0
        model.output.bias[:] = [1.0, 0.0]
        ds = _blobs(1, n=50)
        assert evaluate(model, ds)["accuracy"] == 0.5

    def test_perfect_model(self):
        ds = _blobs(2, n=50)
        model = small_model(dims=(2, 8, 2), seed=1)
        sgd_train(model, ds, "mse", RegularizerSpec.none(2, 1),
                  TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=200, seed=3))
        assert evaluate(model, ds)["accuracy"] == 1.0

    def test_accuracy_matches_hand_recount(self):
        ds = _blobs(4, n=50)
        model = small_model(dims=(2, 6, 2), seed=5)
        sgd_train(model, ds, "mse", RegularizerSpec.none(2, 1),
                  TrainConfig(learning_rate=0.4, batch_size=8, max_epochs=40, seed=6))
        correct = sum(
            int(np.argmax(forward(model, x).output)) == t
            for x, t in zip(ds.features, ds.targets)
        )
        assert evaluate(model, ds)["accuracy"] == pytest.approx(correct / len(ds))


def _grid_pieces(seed=0):
    ds = _blobs(seed, n=60)
    cfg = TrainConfig(learning_rate=0.4, batch_size=8, max_epochs=25, seed=seed)

    def model_builder(s):
        return init_mlp([2, 5, 2], "sigmoid", seed=s)

    def reg_builder(ca, cb):
        layers = (
            LayerPenalty("eigen_decay", ca) if ca else LayerPenalty(),
            LayerPenalty("eigen_decay", cb) if cb else LayerPenalty(),
        )
        return RegularizerSpec(layers, (0.0,))

    return ds, cfg, model_builder, reg_builder


class TestGridSearch:
    def test_single_cell(self):
        ds, cfg, mb, rb = _grid_pieces()
        result = grid_search(ds, mb, "mse", [0.01], [0.0], 3, cfg, rb)
        assert result.selected == (0.01, 0.0)
        assert len(result.cells) == 1

    def test_huge_coefficient_loses(self):
        ds, cfg, mb, rb = _grid_pieces(1)
        result = grid_search(ds, mb, "mse", [0.0, 1e6], [0.0], 3, cfg, rb)
        assert result.selected == (0.0, 0.0)
        cells = {(c["c_a"], c["c_b"]): c["mean_accuracy"] for c in result.cells}
        assert cells[(1e6, 0.0)] < cells[(0.0, 0.0)]

    def test_tie_breaks_lexicographically(self):
        ds, cfg, mb, _ = _grid_pieces(2)

        def no_reg(ca, cb):
            return RegularizerSpec.none(2, 1)

        # every cell trains identically, so accuracies tie exactly
        result = grid_search(ds, mb, "mse", [0.3, 0.1], [0.2, 0.05], 3, cfg, no_reg)
        accs = {c["mean_accuracy"] for c in result.cells}
        assert len(accs) == 1
        assert result.selected == (0.1, 0.05)

    def test_folds_larger_than_dataset_rejected(self):
        ds, cfg, mb, rb = _grid_pieces(4)
        with pytest.raises(ValueError):
            grid_search(ds.subset(range(3)), mb, "mse", [0.0], [0.0], 5, cfg, rb)

    def test_loss_based_selection(self):
        ds, cfg, mb, rb = _grid_pieces(6)
        result = grid_search(ds, mb, "mse", [0.0, 1e6], [0.0], 2, cfg, rb,
                             select_by="loss")
        assert result.selected == (0.0, 0.0)

    def test_empty_grid_rejected(self):
        ds, cfg, mb, rb = _grid_pieces(5)
        with pytest.raises(ValueError):
            grid_search(ds, mb, "mse", [], [0.0], 2, cfg, rb)


def test_history_export(tmp_path):
    ds = _blobs(8, n=40)
    model = small_model(seed=9)
    _, history = sgd_train(model, ds, "mse", RegularizerSpec.none(2, 1),
                           TrainConfig(learning_rate=0.2, max_epochs=5, seed=3))
    path = tmp_path / "history.jsonl"
    save_history(history, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["schema_version"] == 1
    assert header["kind"] == "train_history"
    assert len(lines) == 6
    rec = json.loads(lines[1])
    assert set(rec) == {"epoch", "train_objective", "train_loss", "val_loss", "lambda_dom"}
