"""Grid search trains its cell x fold members together in stacked SGD
loops. These tests pin that it gives exactly what one sgd_train + evaluate
per member gives, that stacks stay small for large layers, and that
sgd_train (the one-member case) still writes the bytes it wrote when it was
a loop of its own."""

import contextlib
import hashlib
import io
import json
from pathlib import Path
import warnings

import numpy as np
import pytest

from eigendecay import model as model_module, train
from eigendecay.cli import main
from eigendecay.data import Dataset, gen_two_gaussians, kfold
from eigendecay.model import init_mlp, model_params, save_model
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

ROOT = Path(__file__).resolve().parent.parent


def _per_member_grid(dataset, model_builder, loss_kind, grid_a, grid_b, folds,
                     config, reg_builder, select_by="accuracy"):
    """Grid search written as one sgd_train and one evaluate per cell and
    fold, in grid order: the reference the stacked loop must reproduce."""
    fold_indices = kfold(dataset, folds, config.seed)
    all_idx = np.arange(len(dataset))
    cells, epochs_run = [], []
    for ia, c_a in enumerate(grid_a):
        for ib, c_b in enumerate(grid_b):
            reg = reg_builder(c_a, c_b)
            accs, losses = [], []
            for f, held in enumerate(fold_indices):
                m = model_builder(train._cell_seed(config.seed, ia, ib, f))
                _, history = sgd_train(m, dataset.subset(np.setdiff1d(all_idx, held)),
                                       loss_kind, reg, config)
                epochs_run.append(len(history.epochs))
                scores = evaluate(m, dataset.subset(held), loss_kind)
                accs.append(scores["accuracy"])
                losses.append(scores["mean_loss"])
            cells.append({
                "c_a": c_a,
                "c_b": c_b,
                "mean_accuracy": float(np.mean(accs)),
                "mean_loss": float(np.mean(losses)),
                "fold_accuracies": accs,
            })
    best = None
    for cell in cells:
        score = cell["mean_accuracy"] if select_by == "accuracy" else -cell["mean_loss"]
        key = (cell["c_a"], cell["c_b"])
        if best is None or score > best[0] or (score == best[0] and key < best[1]):
            best = (score, key, cell["mean_accuracy"])
    return cells, best[1], best[2], epochs_run


@pytest.fixture
def stack_sizes(monkeypatch):
    """Leading member-axis length of every batch backward sees."""
    sizes = []
    original = train.backward

    def spy(model, X, *args, **kwargs):
        sizes.append(X.shape[0] if np.ndim(X) == 3 else None)
        return original(model, X, *args, **kwargs)

    monkeypatch.setattr(train, "backward", spy)
    return sizes


def _blobs(n_per_class, seed):
    return gen_two_gaussians(n_per_class, centers=((-1.2, 0.0), (1.2, 0.3)),
                             sigma=0.7, seed=seed)


def _odd_blobs():
    # 203 rows: folds of 41, 41, 41, 40 and 40, so training sets of 162 and
    # 163 rows and a ragged last batch of 2 or 3 at batch size 16
    ds = _blobs(102, seed=11)
    return ds.subset(np.arange(203))


def _mixed_regs(c_a, c_b):
    # one penalty kind per value of c_a, including an eigen-decay entry with
    # C = 0; c_b switches eigen decay on the output layer and dropout
    hidden = {
        0.0: LayerPenalty("eigen_decay", 0.0),
        1.0: LayerPenalty("l1", 1e-3),
        2.0: LayerPenalty("l2", 2e-3),
        3.0: LayerPenalty("eigen_decay", 1e-2),
    }[c_a]
    out = LayerPenalty("eigen_decay", c_b, 5) if c_b else LayerPenalty()
    return RegularizerSpec((hidden, out), (0.15,) if c_b else (0.0,))


def _sigmoid_builder(seed):
    return init_mlp([2, 6, 2], "sigmoid", seed=seed)


def _assert_same(stacked, reference):
    cells, selected, accuracy, _ = reference
    assert stacked.cells == cells
    assert stacked.selected == selected
    assert stacked.selected_accuracy == accuracy


class TestGridSearchMatchesPerMemberTraining:
    def test_unequal_folds_ragged_batches_mixed_penalties_dropout(self, stack_sizes):
        ds = _odd_blobs()
        cfg = TrainConfig(learning_rate=0.3, batch_size=16, max_epochs=6, seed=4)
        args = (ds, _sigmoid_builder, "mse", [0.0, 1.0, 2.0, 3.0], [0.0, 4e-3], 5,
                cfg, _mixed_regs)
        stacked = grid_search(*args)
        assert max(stack_sizes) > 1
        _assert_same(stacked, _per_member_grid(*args))

    def test_early_stopping_at_different_epochs(self, stack_sizes):
        ds = _blobs(60, seed=5)
        cfg = TrainConfig(
            learning_rate=0.6, batch_size=8, max_epochs=40, seed=9, momentum=0.5,
            early_stopping=EarlyStopping(True, patience=2, validation_fraction=0.25),
        )
        args = (ds, _sigmoid_builder, "binary_cross_entropy", [0.0, 1.0, 3.0], [0.0],
                4, cfg, _mixed_regs)
        reference = _per_member_grid(*args)
        # members leave the stack at different epochs, some before the budget
        assert len(set(reference[3])) > 2
        assert min(reference[3]) < cfg.max_epochs
        stacked = grid_search(*args)
        assert max(stack_sizes) > 1
        _assert_same(stacked, reference)

    def test_loss_based_selection(self, stack_sizes):
        ds = _blobs(40, seed=6)
        cfg = TrainConfig(learning_rate=0.4, batch_size=16, max_epochs=5, seed=2)
        args = (ds, _sigmoid_builder, "categorical_cross_entropy", [0.0, 3.0],
                [0.0, 1e-2], 3, cfg, _mixed_regs)
        stacked = grid_search(*args, select_by="loss")
        assert max(stack_sizes) > 1
        _assert_same(stacked, _per_member_grid(*args, select_by="loss"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("activation, kind, lr, message", [
        # the weights go non-finite mid-epoch and the next penalty gradient
        # finds them
        ("relu", "eigen_decay", 0.1,
         "parameters diverged during epoch 1: matrix entries must be finite"),
        ("relu", "eigen_decay", 0.5, "objective diverged at epoch 0: inf"),
        ("sigmoid", "l2", 0.5, "objective diverged at epoch 4: inf"),
    ])
    def test_diverging_cell_raises_the_first_error_in_grid_order(
            self, stack_sizes, activation, kind, lr, message):
        ds = _blobs(40, seed=7)
        cfg = TrainConfig(learning_rate=lr, batch_size=16, max_epochs=8, seed=3)

        def builder(seed):
            return init_mlp([2, 6, 2], activation, seed=seed)

        def regs(c_a, c_b):
            hidden = LayerPenalty(kind, c_a) if c_a else LayerPenalty()
            return RegularizerSpec((hidden, LayerPenalty()), (0.0,))

        args = (ds, builder, "mse", [0.0, 1e-3, 1e8], [0.0], 3, cfg, regs)
        with pytest.raises(DivergenceError) as expected:
            _per_member_grid(*args)
        with pytest.raises(DivergenceError) as got:
            grid_search(*args)
        assert max(stack_sizes) > 1
        assert str(expected.value) == message
        assert got.value.epoch == expected.value.epoch
        assert str(got.value) == str(expected.value)

    def test_degenerate_power_iterate_fails_only_its_member(self, stack_sizes):
        # the fifth model's hidden rows are w and -w, so W W^T maps the
        # all-ones start to zero and the penalty gradient cannot be formed
        ds = _blobs(30, seed=8)
        cfg = TrainConfig(learning_rate=0.2, batch_size=16, max_epochs=3, seed=1)
        built = []

        def builder(seed):
            m = init_mlp([2, 2, 2], "tanh", seed=seed)
            if len(built) % 6 == 4:
                m.hidden[0].weights[1] = -m.hidden[0].weights[0]
            built.append(seed)
            return m

        def regs(c_a, c_b):
            return RegularizerSpec((LayerPenalty("eigen_decay", c_a), LayerPenalty()),
                                   (0.0,))

        args = (ds, builder, "mse", [1e-3, 1e-2], [0.0], 3, cfg, regs)
        with pytest.raises(DivergenceError) as expected:
            _per_member_grid(*args)
        built.clear()
        with pytest.raises(DivergenceError) as got:
            grid_search(*args)
        assert max(stack_sizes) > 1
        assert "power iterate hit the zero vector" in str(expected.value)
        assert (got.value.epoch, str(got.value)) == (expected.value.epoch,
                                                     str(expected.value))


@pytest.fixture
def stacks(monkeypatch):
    """Member count of every stacked SGD loop grid_search runs."""
    counts = []
    original = train._sgd_stack

    def spy(members, *args, **kwargs):
        counts.append(len(members))
        return original(members, *args, **kwargs)

    monkeypatch.setattr(train, "_sgd_stack", spy)
    return counts


class TestStackSize:
    def test_cap_follows_the_layer_shapes(self):
        # a whole gauss_grid (25 members of 2-8-2) fits in one stack; a
        # 784-128-10 member trains alone
        assert train._stack_cap(init_mlp([2, 8, 2], "tanh"), 16) >= 25
        assert train._stack_cap(init_mlp([784, 128, 10], "relu"), 128) == 1

    def test_large_layers_train_one_member_at_a_time(self, stacks):
        rng = np.random.default_rng(0)
        y = np.arange(24) % 10
        X = rng.uniform(0.0, 1.0, (24, 784))
        ds = Dataset(X, y, np.where(np.eye(10)[y] > 0, 1.0, -1.0), 10)
        cfg = TrainConfig(learning_rate=0.1, batch_size=128, max_epochs=1, seed=0)

        def regs(c_a, c_b):
            return RegularizerSpec((LayerPenalty("eigen_decay", c_a), LayerPenalty()),
                                   (0.2,))

        args = (ds, lambda seed: init_mlp([784, 128, 10], "relu", seed=seed), "mse",
                [0.0, 1e-3], [0.0], 2, cfg, regs)
        got = grid_search(*args)
        assert stacks == [1, 1, 1, 1]
        _assert_same(got, _per_member_grid(*args))

    def test_capped_stacks_match_per_member_training(self, monkeypatch, stacks):
        # 2-6-2 at batch 16: the largest per-step array is the 16 x 6 batch
        # of hidden activations, so this budget stacks three members
        monkeypatch.setattr(model_module, "STACK_FLOATS", 3 * 16 * 6)
        ds = _odd_blobs()
        cfg = TrainConfig(learning_rate=0.3, batch_size=16, max_epochs=4, seed=4)
        args = (ds, _sigmoid_builder, "mse", [0.0, 1.0, 3.0], [0.0, 4e-3], 5, cfg,
                _mixed_regs)
        got = grid_search(*args)
        assert max(stacks) == 3 and len(stacks) > 2
        _assert_same(got, _per_member_grid(*args))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_settled_divergence_stops_the_search(self, monkeypatch, stacks):
        # the first cell diverges in its own stack, so the later cells
        # never train
        monkeypatch.setattr(model_module, "STACK_FLOATS", 3 * 16 * 6)
        ds = _blobs(40, seed=7)
        cfg = TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=8, seed=3)

        def regs(c_a, c_b):
            hidden = LayerPenalty("eigen_decay", c_a) if c_a else LayerPenalty()
            return RegularizerSpec((hidden, LayerPenalty()), (0.0,))

        args = (ds, lambda seed: init_mlp([2, 6, 2], "relu", seed=seed), "mse",
                [1e8, 0.0, 1e-3], [0.0], 3, cfg, regs)
        with pytest.raises(DivergenceError) as expected:
            _per_member_grid(*args)
        stacks.clear()
        with pytest.raises(DivergenceError) as got:
            grid_search(*args)
        assert stacks == [3]
        assert (got.value.epoch, str(got.value)) == (expected.value.epoch,
                                                     str(expected.value))


def test_members_hold_row_indices_not_data():
    ds = _blobs(30, seed=2)
    cfg = TrainConfig(learning_rate=0.1, early_stopping=EarlyStopping(True))
    reg = RegularizerSpec((LayerPenalty(), LayerPenalty()), (0.0,))
    rows = np.arange(5, 55)
    m = train._member(_sigmoid_builder(0), ds, rows, reg, cfg)
    for value in vars(m).values():
        assert not isinstance(value, Dataset)
        if isinstance(value, np.ndarray):
            assert value.dtype.kind == "i"
    np.testing.assert_array_equal(np.sort(np.concatenate([m.rows, m.val_rows])), rows)


def _grid_members(ds, cfg, keep_history):
    """grid_search's members for _mixed_regs' 4 x 2 grid plus a diverging
    cell, over 5 folds of 203 rows (training sets of 162 and 163 rows),
    and each one's held-out rows. Each cell's fold-0 member has output rows
    w and -w, which mse keeps so: the all-ones start lies in the kernel of
    its output gram, so the unread output lambda of an unpenalized output
    layer records nan and the member trains on, and a penalized one
    diverges."""
    folds = kfold(ds, 5, cfg.seed)
    regs = [_mixed_regs(a, b) for a in (0.0, 1.0, 2.0, 3.0) for b in (0.0, 4e-3)]
    regs.append(RegularizerSpec((LayerPenalty("eigen_decay", 1e200), LayerPenalty()),
                                (0.0,)))
    members, held = [], []
    for cell, reg in enumerate(regs):
        for f, fold in enumerate(folds):
            model = _sigmoid_builder(train._cell_seed(cfg.seed, cell, 0, f))
            if f == 0:
                model.output.weights[1] = -model.output.weights[0]
            m = train._member(model, ds, np.setdiff1d(np.arange(len(ds)), fold), reg, cfg)
            if not keep_history:
                m.history = None
            members.append(m)
            held.append(fold)
    return members, held


def _train_grid_members(ds, cfg, keep_history):
    """Each member's result and held-out scores, its stack the members of
    its training-set size, as grid_search stacks them: two stacks, or one
    whose validation splits differ by a row under early stopping."""
    members, held = _grid_members(ds, cfg, keep_history)
    by_size = {}
    for i, m in enumerate(members):
        by_size.setdefault(m.train_size(ds), []).append(i)
    results = [None] * len(members)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for idx in by_size.values():
            trained = train._sgd_stack([members[i] for i in idx], ds, "mse", cfg)
            for i, result in zip(idx, trained):
                results[i] = result
    scores = [None if isinstance(r, DivergenceError) else evaluate(m.model, ds.subset(rows))
              for m, r, rows in zip(members, results, held)]
    return members, results, scores


@pytest.mark.parametrize("early_stopping", [False, True])
def test_members_without_history_end_as_members_with_one(early_stopping):
    ds = _odd_blobs()
    cfg = TrainConfig(learning_rate=0.3, batch_size=16, max_epochs=8, seed=4,
                      early_stopping=EarlyStopping(early_stopping, patience=2,
                                                   validation_fraction=0.25))
    kept, kept_results, kept_scores = _train_grid_members(ds, cfg, True)
    bare, bare_results, bare_scores = _train_grid_members(ds, cfg, False)

    for m, kept_r, bare_r in zip(kept, kept_results, bare_results):
        if isinstance(kept_r, DivergenceError):
            assert isinstance(bare_r, DivergenceError)
            assert (bare_r.epoch, str(bare_r)) == (kept_r.epoch, str(kept_r))
        else:
            assert bare_r.epochs is None
            assert bare_r.best_epoch == kept_r.best_epoch
    assert bare_scores == kept_scores
    for k, b in zip(kept, bare):
        for got, want in zip(model_params(b.model), model_params(k.model)):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    # the fold-0 members of cells with an unpenalized output layer recorded a
    # failed output lambda at every epoch and trained on; those of cells
    # with a penalized one diverged, as did every member of the last cell
    kernel = [r for j, r in enumerate(kept_results) if j % 5 == 0 and j < 40]
    for r, reg in zip(kernel, [_mixed_regs(a, b) for a in range(4) for b in (0.0, 4e-3)]):
        if reg.layers[1].kind == "none":
            assert all(np.isnan(e.lambda_dom[1]) for e in r.epochs)
        else:
            assert isinstance(r, DivergenceError)
    assert all(isinstance(r, DivergenceError) for r in kept_results[40:])


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# sha256 of the outputs as the single-member training loop wrote them
GRID_SHA256 = {
    0: "3b6a4e92cccee52d30ec16dbbdbec2e653849beef3c8ae3f74e2708d70b39655",
    7: "fee0c5e05c9b2fe4643be762449b5f4da2c14bd4f80a3120ed02b388d9b8881c",
}
HISTORY_SHA256 = "ac91b7f833dbe8de347bc181a05454a8ec48f40fa1ec32141d7921dcf7bd29ff"
MODEL_SHA256 = "15a7ee31b4f0ab97c63615dfe51dc4a9e624888ebe28a65859c5e40a262b3843"


@pytest.mark.parametrize("seed", sorted(GRID_SHA256))
def test_gridsearch_report_bytes_are_pinned(tmp_path, seed):
    # configs/two_gaussians.json reseeded and cut to 15 epochs, as the
    # benchmark's gauss_grid workload runs it
    config = json.loads((ROOT / "configs" / "two_gaussians.json").read_text())
    config["data"]["seed"] = seed
    config["model"]["seed"] = seed + 1
    config["train"]["seed"] = seed + 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["gridsearch", "--config", str(path), "--epochs", "15",
                     "--out", str(tmp_path / "grid")])
    assert code == 0
    assert _sha(tmp_path / "grid" / "gridsearch.jsonl") == GRID_SHA256[seed]


def test_sgd_train_history_bytes_are_pinned(tmp_path):
    # dropout, categorical cross-entropy, eigen decay, l2, momentum and an
    # early stop at epoch 10 with the parameters of epoch 6 restored
    ds = gen_two_gaussians(40, centers=((-1.0, 0.0), (1.0, 0.0), (0.0, 1.5)),
                           sigma=0.6, seed=3)
    model = init_mlp([2, 6, 5, 3], "tanh", seed=4)
    reg = RegularizerSpec((LayerPenalty("eigen_decay", 0.01, 9), LayerPenalty("l2", 1e-3),
                           LayerPenalty("eigen_decay", 0.005, 5)), (0.2, 0.1))
    cfg = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=40, seed=6,
                      momentum=0.9,
                      early_stopping=EarlyStopping(True, patience=4,
                                                   validation_fraction=0.25))
    _, history = sgd_train(model, ds, "categorical_cross_entropy", reg, cfg)
    assert (len(history.epochs), history.best_epoch) == (11, 6)
    save_history(history, tmp_path / "history.jsonl")
    save_model(model, tmp_path / "model.json")
    assert _sha(tmp_path / "history.jsonl") == HISTORY_SHA256
    assert _sha(tmp_path / "model.json") == MODEL_SHA256
