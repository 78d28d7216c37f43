import json

import numpy as np
import pytest

from conftest import small_model

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
        # the history's lambda and the eigen-decay penalty value share one
        # stacked power iteration per layer and step count per epoch end
        from eigendecay import objectives, train

        calls = []
        original = objectives.power_dominant_eigen

        def counting(m, *args, **kwargs):
            calls.append(m.shape)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(objectives, "power_dominant_eigen", counting)
        ds = _blobs(9, n=40)
        model = small_model(dims=(2, 5, 2), seed=4)
        reg = RegularizerSpec((LayerPenalty("eigen_decay", 0.01), LayerPenalty()), (0.0,))
        cfg = TrainConfig(learning_rate=0.2, max_epochs=6, seed=1)
        _, history = sgd_train(model, ds, "mse", reg, cfg)
        assert len(history.epochs) == 6
        assert calls == [(1, 5, 5), (1, 2, 2)] * 6

        # three members, one of them with a 5-step eigen-decay layer
        calls.clear()
        regs = [reg, RegularizerSpec.none(2, 1),
                RegularizerSpec((LayerPenalty("eigen_decay", 0.01, 5), LayerPenalty()),
                                (0.0,))]
        members = [train._member(small_model(dims=(2, 5, 2), seed=s), ds, None, "mse", r,
                                 cfg) for s, r in enumerate(regs)]
        results = train._sgd_stack(members, ds, "mse", cfg)
        assert all(len(r.epochs) == 6 for r in results)
        assert calls == [(2, 5, 5), (1, 5, 5), (3, 2, 2)] * 6

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
        members = [train._member(small_model(dims=(2, 5, 2), seed=s), ds, None, "mse", r,
                                 cfg) for s, r in enumerate(regs)]
        assert checked == regs
        results = train._sgd_stack(members, ds, "mse", cfg)
        assert all(len(r.epochs) == 3 for r in results)
        assert checked == regs

    def test_objective_from_shared_lambdas_is_bit_identical(self):
        from eigendecay.linalg import gram, power_dominant_eigen
        from eigendecay.objectives import total_objective

        ds = _blobs(3, n=30)
        model = small_model(dims=(2, 6, 2), seed=8)
        reg = RegularizerSpec(
            (LayerPenalty("eigen_decay", 0.03, 5), LayerPenalty("eigen_decay", 0.2)),
            (0.0,),
        )
        lambdas = tuple(power_dominant_eigen(gram(layer.weights), entry.p).lambda_dom
                        for entry, layer in zip(reg.layers, model.layers))
        shared = total_objective(model, ds.features, ds.encoded, "mse", reg,
                                 lambdas=lambdas)
        alone = total_objective(model, ds.features, ds.encoded, "mse", reg)
        assert shared.penalties == alone.penalties
        assert shared.total == alone.total

    def test_regularized_layer_ends_with_smaller_lambda(self):
        # identical seeds, with and without the eigenvalue penalty on the
        # hidden layer; the penalized run should end smaller nearly always
        wins = 0
        for seed in range(10):
            results = {}
            for C in (0.01, 0.0):
                ds = _blobs(seed, n=80)
                model = small_model(dims=(2, 8, 2), seed=seed)
                if C:
                    reg = RegularizerSpec(
                        (LayerPenalty("eigen_decay", C), LayerPenalty()), (0.0,)
                    )
                else:
                    reg = RegularizerSpec.none(2, 1)
                _, history = sgd_train(
                    model, ds, "mse", reg,
                    TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=80, seed=seed),
                )
                results[C] = history.epochs[-1].lambda_dom[0]
            wins += results[0.01] < results[0.0]
        assert wins >= 9

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
