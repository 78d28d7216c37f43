"""Minibatch SGD on the regularized objective, early stopping on a carved
validation split, evaluation, and k-fold cross-validated grid search over
the two regularization constants."""

from dataclasses import dataclass, field, replace
import math

import numpy as np

from .data import Dataset, _check_count, _is_finite, _is_int, kfold, split_indices, write_jsonl
from .grad import backward
from .linalg import POWER_STEPS
from .model import (
    _stack_cap,
    _with_params,
    forward_batch,
    model_params,
    set_model_params,
)
from .objectives import (
    _lambdas,
    _StackSpecs,
    loss_batch,
    sample_dropout_masks,
    total_objective,
)


class DivergenceError(RuntimeError):
    def __init__(self, epoch, message):
        super().__init__(message)
        self.epoch = epoch


@dataclass(frozen=True)
class EarlyStopping:
    enabled: bool = False
    patience: int = 10
    validation_fraction: float = 0.1

    def __post_init__(self):
        if not isinstance(self.enabled, bool):
            raise ValueError(f"enabled must be true or false, got {self.enabled!r}")
        if self.enabled or not _is_int(self.patience):
            _check_count("patience", self.patience, 1)
        if not _is_finite(self.validation_fraction) or not 0.0 < self.validation_fraction < 1.0:
            raise ValueError(
                f"validation fraction must lie in (0, 1), got "
                f"{self.validation_fraction}"
            )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int = 32
    max_epochs: int = 100
    seed: int = 0
    early_stopping: EarlyStopping = field(default_factory=EarlyStopping)
    shuffle: bool = True
    momentum: float = 0.0

    def __post_init__(self):
        if not _is_finite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError(f"learning rate must be finite and >= 0, got {self.learning_rate!r}")
        _check_count("batch size", self.batch_size, 1)
        _check_count("epoch budget", self.max_epochs, 1)
        _check_count("seed", self.seed, 0)
        if not _is_finite(self.momentum) or not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not isinstance(self.shuffle, bool):
            raise ValueError(f"shuffle must be true or false, got {self.shuffle!r}")


@dataclass
class EpochRecord:
    epoch: int
    train_objective: float
    train_loss: float
    val_loss: float  # None when early stopping is off
    lambda_dom: tuple  # power-method estimate per weight layer; None if no history


@dataclass
class TrainHistory:
    epochs: list  # None for a member that keeps no history
    best_epoch: int

    def records(self):
        return [
            {
                "epoch": r.epoch,
                "train_objective": r.train_objective,
                "train_loss": r.train_loss,
                "val_loss": r.val_loss,
                "lambda_dom": list(r.lambda_dom),
            }
            for r in self.epochs
        ]


def save_history(history, path):
    header = {"schema_version": 1, "kind": "train_history", "best_epoch": history.best_epoch}
    write_jsonl(path, header, history.records())


@dataclass
class _Member:
    """One training run in a stack: its model, penalties, the rows of the
    shared dataset it trains on (None: all of them, in order), the rows of
    its validation split (None: early stopping is off), its TrainConfig,
    whose seed seeds its draws, its EpochRecords (None: it keeps none, as
    grid_search's members do), and its early-stopping state. Rows are
    gathered when used, so a member never holds a copy of the data."""

    model: object
    reg: object
    rows: object
    val_rows: object
    config: TrainConfig
    history: list = field(default_factory=list)
    best_val: float = math.inf
    best_epoch: int = 0
    best_params: list = None

    def train_size(self, dataset):
        return len(dataset) if self.rows is None else len(self.rows)

    def stack_key(self, dataset):
        # what one stack's members share: _sgd_stack reads one config
        layers = tuple((l.weights.shape, l.activation.kind) for l in self.model.layers)
        return self.train_size(dataset), layers, replace(self.config, seed=0)


def _member(model, dataset, rows, reg, config):
    """Checks one training run's inputs and carves its validation split
    with config.seed, the seed of its draws. rows picks the dataset rows it
    trains on; None means all of them."""
    if (len(dataset) if rows is None else len(rows)) == 0:
        raise ValueError("dataset must be nonempty")
    reg.check_against(model)
    if dataset.n_features != model.n_in:
        raise ValueError(
            f"data has {dataset.n_features} features but the model expects "
            f"{model.n_in}"
        )
    if dataset.encoded.shape[1] != model.n_out:
        raise ValueError(
            f"targets encode {dataset.encoded.shape[1]} classes but the model "
            f"emits {model.n_out}"
        )
    val_rows = None
    es = config.early_stopping
    if es.enabled:
        pool = np.arange(len(dataset)) if rows is None else rows
        first, second = split_indices(len(pool), 1.0 - es.validation_fraction, config.seed)
        rows, val_rows = pool[first], pool[second]
    return _Member(model, reg, rows, val_rows, config)


def _stack(arrays):
    # one member is a view, so the one-run case copies nothing per step
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _stacked_masks(streams, rngs, stream_of, hidden_dims, batch):
    """The live members' dropout masks for one batch: one draw per stream,
    from its generator in single-run order, given to each member of the
    stream (stream_of holds each member's position in streams). A stream
    without dropout in a layer gets ones there (x * 1.0 == x), and a layer
    no stream drops gets None."""
    drawn = [
        None if rates is None
        else sample_dropout_masks(rates, hidden_dims, batch, rngs[seed, rates])
        for seed, rates in streams
    ]
    masks = []
    for k, width in enumerate(hidden_dims):
        layer = [None if d is None else d[k] for d in drawn]
        if all(mask is None for mask in layer):
            masks.append(None)
        else:
            masks.append(np.stack([
                np.ones((batch, width)) if mask is None else mask for mask in layer
            ])[stream_of])
    return masks


def _gathers(members, dataset):
    """(X, Y, val): what the epoch end reads of a set of members, gathered
    from the shared dataset by index once per set. X and Y stack each
    member's training rows; members that train on all rows, as sgd_train's
    does, read views of the data, not copies. val holds, per validation
    split size (splits of one training-set size can differ by a row), the
    members' stack positions and their stacked validation rows; it is None
    when early stopping is off."""
    if members[0].rows is None:
        X, Y = (np.broadcast_to(a, (len(members),) + a.shape)
                for a in (dataset.features, dataset.encoded))
    else:
        rows = _stack([m.rows for m in members])
        X, Y = dataset.features[rows], dataset.encoded[rows]
    val = None
    if members[0].val_rows is not None:
        by_size = {}
        for i, m in enumerate(members):
            by_size.setdefault(len(m.val_rows), []).append(i)
        val = []
        for idx in by_size.values():
            rows = _stack([members[i].val_rows for i in idx])
            val.append((idx, dataset.features[rows], dataset.encoded[rows]))
    return X, Y, val


def _unread_lambdas(lambdas, params, specs, recorded):
    """Fills in the lambdas (R, layers) that no penalty read, for the stack
    positions in recorded: one stacked power iteration per layer and step
    count (the entry's p for eigen decay, POWER_STEPS otherwise). One that
    fails records nan; it ends nothing."""
    for k, (w, penalized) in enumerate(zip(params[0::2], specs.layers)):
        read = {r for g in penalized if g.kind == "eigen_decay" for r in g.members.tolist()}
        groups = {}
        for r in recorded:
            if r not in read:
                entry = specs[r].layers[k]
                p = entry.p if entry.kind == "eigen_decay" else POWER_STEPS
                groups.setdefault(p, []).append(r)
        for p, idx in groups.items():
            lambdas[idx, k] = _lambdas(w if len(idx) == len(specs) else w[idx], p)[0]


def _epoch_end(members, params, template, gathered, loss_kind, epoch, specs):
    """The epoch-end record of each member of a stack whose parameters are
    finite, or the DivergenceError that ends it. gathered is the members'
    _gathers and specs their objectives._StackSpecs.

    One stacked total_objective over each member's training rows gives the
    objective and the lambda of each penalized eigen-decay layer; a member
    whose penalty value cannot be computed ends. A member that keeps a
    history also records the lambdas no penalty read (_unread_lambdas); one
    that keeps none gets a record without lambdas. One stacked forward pass
    per validation split size gives the validation loss; a member where it
    or the objective is not finite diverges.
    """
    X, Y, val = gathered
    stack = _with_params(template, params)
    objectives, lambdas, failed = total_objective(stack, X, Y, loss_kind, specs)

    recorded = [r for r, m in enumerate(members) if m.history is not None and r not in failed]
    if recorded:
        _unread_lambdas(lambdas, params, specs, recorded)

    val_loss = [None] * len(members)
    for idx, Xv, Yv in val or ():
        model = stack if len(idx) == len(members) else _with_params(
            template, [p[idx] for p in params])
        _, _, Yhat = forward_batch(model, Xv)
        for i, loss in zip(idx, loss_batch(loss_kind, Yhat, Yv)):
            val_loss[i] = float(loss)

    out = []
    for j, (obj, val) in enumerate(zip(objectives, val_loss)):
        if j in failed:
            out.append(DivergenceError(
                epoch, f"parameters diverged during epoch {epoch}: {failed[j]}"))
        elif not math.isfinite(obj.total) or (val is not None and not math.isfinite(val)):
            out.append(DivergenceError(
                epoch, f"objective diverged at epoch {epoch}: {obj.total}"))
        else:
            lam = None if members[j].history is None else tuple(lambdas[j].tolist())
            out.append(EpochRecord(epoch, obj.total, obj.loss, val, lam))
    return out


def _write_back(member, result, params):
    """Writes the parameters a member leaves the stack with into its model:
    its best validation epoch's when it ends with a TrainHistory under
    early stopping, else params."""
    best = isinstance(result, TrainHistory) and member.best_params is not None
    set_model_params(member.model, member.best_params if best else params)


def _sgd_stack(members, dataset, loss_kind):
    """Minibatch SGD for members of one stack_key together: one step for
    all of them per batch, under members[0].config.

    Every parameter, activation and gradient carries a leading member axis,
    and each member's slice has the bits it would have trained alone. Each
    member's draws would come from its own Generator(config.seed): its
    permutation, then its dropout masks, batch by batch. Members whose
    draws are the same share one such generator, a draw stream keyed by
    their seed and dropout rates, which draws each epoch's permutation and
    each batch's masks once for all of them. Each epoch's batch rows come
    from one fancy index into the live members' stacked row indices. At
    each epoch end every member is checked on its own; one that stops early
    or diverges leaves the stack. The live members' specs are grouped
    (objectives._StackSpecs), their row indices stacked and their epoch-end
    rows gathered (_gathers) once, and again only when some leave.

    Returns one TrainHistory or DivergenceError per member, in order; a
    member that keeps no history gets TrainHistory(None, best_epoch). Each
    member's model is written once, when it leaves the stack or training
    ends: with its final parameters, or with the best validation epoch's
    under early stopping, or as they were when it diverged.
    """
    config = members[0].config
    es = config.early_stopping
    template = members[0].model
    n = members[0].train_size(dataset)
    # alone, every member draws from a Generator(config.seed), so members
    # with equal seeds and dropout rates draw the same permutations and
    # masks, and members of one seed without dropout the same permutations:
    # one draw stream each
    keys = [(m.config.seed, m.reg.dropout if m.reg.has_dropout else None) for m in members]
    rngs = {key: np.random.default_rng(key[0]) for key in dict.fromkeys(keys)}
    results = [None] * len(members)
    active = list(range(len(members)))
    params = [_stack(arrays) for arrays in zip(*(model_params(m.model) for m in members))]
    velocity = [np.zeros_like(p) for p in params] if config.momentum > 0 else None
    any_dropout = any(rates is not None for _, rates in keys)
    specs = None  # the live set's grouped specs; None once some leave

    for epoch in range(config.max_epochs):
        if specs is None:
            stack = _with_params(template, params)
            live = [members[i] for i in active]
            specs = _StackSpecs(m.reg for m in live)
            # the live streams in order of first member; member j draws from
            # streams[stream_of[j]]
            streams = list(dict.fromkeys(keys[i] for i in active))
            stream_of = np.array([streams.index(keys[i]) for i in active])
            lanes = np.arange(len(live))[:, None]
            member_rows = _stack([np.arange(n) if m.rows is None else m.rows for m in live])
            gathered = _gathers(live, dataset)
        rows = member_rows
        if config.shuffle:
            orders = np.stack([rngs[key].permutation(n) for key in streams])
            rows = member_rows[lanes, orders[stream_of]]
        failed = {}  # stack position -> divergence message
        for start in range(0, n, config.batch_size):
            idx = rows[:, start : start + config.batch_size]
            masks = None
            if any_dropout:
                masks = _stacked_masks(streams, rngs, stream_of, template.hidden_dims,
                                       idx.shape[1])
            grads = backward(
                stack, dataset.features[idx], dataset.encoded[idx], loss_kind, specs, masks
            )
            for j, exc in grads.failed.items():
                if j not in failed:
                    failed[j] = f"parameters diverged during epoch {epoch}: {exc}"
                    # it leaves at the epoch end, but keeps these parameters
                    set_model_params(live[j].model, [p[j] for p in params])
            if len(failed) == len(live):
                break
            # the step consumes the gradient arrays: each is scaled by the
            # learning rate in place
            if velocity is None:
                for p, g in zip(params, grads.as_list()):
                    g *= config.learning_rate
                    p -= g
            else:
                for p, g, v in zip(params, grads.as_list(), velocity):
                    v *= config.momentum
                    g *= config.learning_rate
                    v -= g
                    p += v

        finite = np.ones(len(live), dtype=bool)
        for p in params:
            finite &= np.isfinite(p).reshape(len(live), -1).all(axis=1)
        evaluate_at = []  # stack positions that reach the epoch-end evaluation
        for j, i in enumerate(active):
            if j in failed:
                results[i] = DivergenceError(epoch, failed[j])
            elif not finite[j]:
                results[i] = DivergenceError(
                    epoch, f"parameters diverged during epoch {epoch}"
                )
            else:
                evaluate_at.append(j)
        records = []
        if len(evaluate_at) == len(live):
            records = _epoch_end(live, params, template, gathered, loss_kind, epoch, specs)
        elif evaluate_at:
            evaluated = [live[j] for j in evaluate_at]
            records = _epoch_end(evaluated, [p[evaluate_at] for p in params], template,
                                 _gathers(evaluated, dataset), loss_kind, epoch,
                                 _StackSpecs(specs[j] for j in evaluate_at))
        for j, record in zip(evaluate_at, records):
            i, m = active[j], live[j]
            if isinstance(record, DivergenceError):
                results[i] = record
                continue
            if m.history is not None:
                m.history.append(record)
            if not es.enabled:
                m.best_epoch = epoch
            elif record.val_loss < m.best_val:
                m.best_val = record.val_loss
                m.best_epoch = epoch
                m.best_params = [p[j].copy() for p in params]
            elif epoch - m.best_epoch >= es.patience:
                results[i] = TrainHistory(m.history, m.best_epoch)

        keep = []
        for j, i in enumerate(active):
            if results[i] is None:
                keep.append(j)
            elif j not in failed:
                _write_back(members[i], results[i], [p[j] for p in params])
        if len(keep) < len(active):
            active = [active[j] for j in keep]
            if not active:
                break
            params = [p[keep] for p in params]
            if velocity is not None:
                velocity = [v[keep] for v in velocity]
            specs = None

    for j, i in enumerate(active):
        m = members[i]
        results[i] = TrainHistory(m.history, m.best_epoch)
        _write_back(m, results[i], [p[j] for p in params])
    return results


def _trained(members, dataset, loss_kind):
    """Trains the members an iterable yields as _sgd_stack members, and
    yields (position, member, TrainHistory) for each as its stack ends;
    position counts the members in the order they came.

    Members wait in an open stack, one per stack_key, that trains once it
    holds _stack_cap members; the stacks left at the end train in order of
    first member. The first DivergenceError in position order is raised as
    soon as no open stack holds an earlier member.
    """
    waiting = {}  # stack key -> [(position, member)]
    failures = {}  # position -> DivergenceError

    def stacks():
        for pos, m in enumerate(members):
            key = m.stack_key(dataset)
            waiting.setdefault(key, []).append((pos, m))
            if len(waiting[key]) == _stack_cap(m.model, m.config.batch_size):
                yield waiting.pop(key)
        while waiting:
            yield waiting.pop(next(iter(waiting)))

    for stack in stacks():
        results = _sgd_stack([m for _, m in stack], dataset, loss_kind)
        for (pos, m), result in zip(stack, results):
            if isinstance(result, DivergenceError):
                failures[pos] = result
            else:
                yield pos, m, result
        if failures:
            first = min(failures)
            if all(pos > first for other in waiting.values() for pos, _ in other):
                raise failures[first]


def sgd_train(model, dataset, loss_kind, reg, config):
    """Train the model in place; returns (model, TrainHistory).

    With early stopping enabled, a validation split is carved out first and
    the returned parameters are the ones from the epoch of minimum
    validation loss. This is the one-run case of sgd_train_runs.
    """
    ((model, history),) = sgd_train_runs([(model, dataset, reg, config)], loss_kind)
    return model, history


def sgd_train_runs(runs, loss_kind):
    """Trains independent runs, each a (model, dataset, reg, config) that
    sgd_train takes, together; returns in run order the (model,
    TrainHistory) sgd_train returns for each run alone, bit for bit.

    No model may appear twice, and the datasets must agree in feature and
    class count. Distinct datasets are concatenated once, and each run
    trains on its own rows. Runs of one training-set size, layer shape and
    config but for the seed share a stack (_trained); the first
    DivergenceError in run order is raised.
    """
    runs = list(runs)
    if not runs:
        return []
    if len({id(model) for model, _, _, _ in runs}) < len(runs):
        raise ValueError("a model may appear in only one run")
    datasets = list({id(ds): ds for _, ds, _, _ in runs}.values())
    widths = {(ds.n_features, ds.n_classes) for ds in datasets}
    if len(widths) > 1:
        raise ValueError(f"the runs' datasets differ in widths: {sorted(widths)}")
    dataset, rows = datasets[0], {id(datasets[0]): None}
    if len(datasets) > 1:
        # each dataset's rows of the concatenation, in order of first run
        ends = np.cumsum([len(ds) for ds in datasets])
        rows = {id(ds): np.arange(end - len(ds), end) for ds, end in zip(datasets, ends)}
        dataset = Dataset(*(np.concatenate([getattr(ds, a) for ds in datasets])
                            for a in ("features", "targets", "encoded")), dataset.n_classes)
    members = [_member(model, dataset, rows[id(ds)], reg, c) for model, ds, reg, c in runs]
    out = [None] * len(members)
    for pos, m, history in _trained(members, dataset, loss_kind):
        out[pos] = (m.model, history)
    return out


def evaluate(model, dataset, loss_kind="mse"):
    """Accuracy (argmax prediction vs target class) and mean loss."""
    if len(dataset) == 0:
        raise ValueError("dataset must be nonempty")
    _, _, Yhat = forward_batch(model, dataset.features)
    preds = np.argmax(Yhat, axis=1)
    accuracy = float(np.mean(preds == dataset.targets))
    mean_loss = loss_batch(loss_kind, Yhat, dataset.encoded)
    return {"accuracy": accuracy, "mean_loss": mean_loss}


@dataclass
class GridSearchResult:
    cells: list  # dicts: c_a, c_b, mean_accuracy, mean_loss, fold_accuracies
    selected: tuple  # (c_a, c_b)
    selected_accuracy: float


def _cell_seed(base_seed, ia, ib, fold):
    return int(np.random.SeedSequence([base_seed, ia, ib, fold]).generate_state(1)[0])


def grid_search(
    dataset,
    model_builder,
    loss_kind,
    grid_a,
    grid_b,
    folds,
    config,
    reg_builder,
    select_by="accuracy",
):
    """2-D grid over regularization constants scored by k-fold cross
    validation.

    model_builder(seed) must return a fresh model; reg_builder(c_a, c_b)
    maps a grid cell to its regularizers. Cells x folds of one training-set
    size and layer shape train together as members of a stacked SGD loop
    (_trained), with the results of training each alone; the first
    DivergenceError in grid order is raised. Fold
    assignment and per-cell model seeds derive from config.seed. Ties in
    the score go to the lexicographically smallest (c_a, c_b).
    """
    if not grid_a or not grid_b:
        raise ValueError("both grid axes must be nonempty")
    if select_by not in ("accuracy", "loss"):
        raise ValueError(f"select_by must be 'accuracy' or 'loss', got {select_by!r}")
    fold_indices = kfold(dataset, folds, config.seed)
    all_idx = np.arange(len(dataset))
    train_rows = [np.setdiff1d(all_idx, held) for held in fold_indices]
    n_folds = len(fold_indices)

    # every cell's spec is built first, so a bad grid value fails before
    # any cell trains; its members are built as _trained takes them
    specs = [reg_builder(c_a, c_b) for c_a in grid_a for c_b in grid_b]

    def members():
        for cell, reg in enumerate(specs):
            ia, ib = divmod(cell, len(grid_b))
            for f in range(n_folds):
                model = model_builder(_cell_seed(config.seed, ia, ib, f))
                m = _member(model, dataset, train_rows[f], reg, config)
                m.history = None  # the search reads no member's history
                yield m

    scores = {}  # grid position -> evaluate() on its held-out fold
    for pos, m, _ in _trained(members(), dataset, loss_kind):
        scores[pos] = evaluate(m.model, dataset.subset(fold_indices[pos % n_folds]), loss_kind)

    cells = []
    keys = [(c_a, c_b) for c_a in grid_a for c_b in grid_b]
    for c, (c_a, c_b) in enumerate(keys):
        cell_scores = [scores[c * n_folds + f] for f in range(n_folds)]
        accs = [s["accuracy"] for s in cell_scores]
        cells.append({
            "c_a": c_a,
            "c_b": c_b,
            "mean_accuracy": float(np.mean(accs)),
            "mean_loss": float(np.mean([s["mean_loss"] for s in cell_scores])),
            "fold_accuracies": accs,
        })

    # min keeps the first of equal keys; a nan score compares false both
    # ways, so it never displaces the first cell
    best = min(cells, key=lambda cell: (
        -cell["mean_accuracy"] if select_by == "accuracy" else cell["mean_loss"],
        cell["c_a"], cell["c_b"]))
    return GridSearchResult(cells, (best["c_a"], best["c_b"]), best["mean_accuracy"])


def save_grid_result(result, path):
    selected = {
        "selected_c_a": result.selected[0],
        "selected_c_b": result.selected[1],
        "selected_accuracy": result.selected_accuracy,
    }
    write_jsonl(path, {"schema_version": 1, "kind": "grid_search"}, result.cells + [selected])
