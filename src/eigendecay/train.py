"""Minibatch SGD on the regularized objective, early stopping on a carved
validation split, evaluation, and k-fold cross-validated grid search over
the two regularization constants."""

from dataclasses import dataclass, field
import json
import math

import numpy as np

from .data import kfold, split
from .grad import backward
from .linalg import DegenerateIterateError, gram, power_dominant_eigen
from .model import forward_batch, model_params, set_model_params
from .objectives import (
    LOSS_KINDS,
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
        if self.enabled and self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 < self.validation_fraction < 1.0:
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
        if self.learning_rate < 0:
            raise ValueError(f"learning rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"epoch budget must be >= 1, got {self.max_epochs}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")


@dataclass
class EpochRecord:
    epoch: int
    train_objective: float
    train_loss: float
    val_loss: float  # None when early stopping is off
    lambda_dom: tuple  # power-method estimate per weight layer


@dataclass
class TrainHistory:
    epochs: list
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
    with open(path, "w") as fh:
        fh.write(
            json.dumps(
                {
                    "schema_version": 1,
                    "kind": "train_history",
                    "best_epoch": history.best_epoch,
                }
            )
            + "\n"
        )
        for rec in history.records():
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _lambda_estimate(w, p):
    if not np.any(w):
        return 0.0
    if not np.all(np.isfinite(w)):
        return math.nan
    try:
        return power_dominant_eigen(gram(w), p).lambda_dom
    except (ValueError, OverflowError, DegenerateIterateError):
        # gram of healthy-loss but huge weights can exceed float range;
        # the objective check decides divergence, not this diagnostic
        return math.nan


def _layer_lambdas(model, reg):
    out = []
    for entry, layer in zip(reg.layers, model.layers):
        p = entry.p if entry.kind == "eigen_decay" else 9
        out.append(float(_lambda_estimate(layer.weights, p)))
    return tuple(out)


def sgd_train(model, dataset, loss_kind, reg, config):
    """Train the model in place; returns (model, TrainHistory).

    With early stopping enabled, a validation split is carved out first and
    the returned parameters are the ones from the epoch of minimum
    validation loss.
    """
    if len(dataset) == 0:
        raise ValueError("dataset must be nonempty")
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {loss_kind!r}; pick one of {LOSS_KINDS}")
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

    es = config.early_stopping
    if es.enabled:
        train_set, val_set = split(dataset, 1.0 - es.validation_fraction, config.seed)
    else:
        train_set, val_set = dataset, None

    X, Y = train_set.features, train_set.encoded
    n = len(train_set)
    rng = np.random.default_rng(config.seed)
    params = model_params(model)
    velocity = [np.zeros_like(p) for p in params] if config.momentum > 0 else None

    history = []
    best_epoch = 0
    best_val = math.inf
    best_params = None

    for epoch in range(config.max_epochs):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        try:
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                masks = None
                if reg.has_dropout:
                    masks = sample_dropout_masks(
                        reg.dropout, model.hidden_dims, idx.shape[0], rng
                    )
                grads = backward(model, X[idx], Y[idx], loss_kind, reg, masks)
                if velocity is None:
                    for p, g in zip(params, grads.as_list()):
                        p -= config.learning_rate * g
                else:
                    for p, g, v in zip(params, grads.as_list(), velocity):
                        v *= config.momentum
                        v -= config.learning_rate * g
                        p += v
            if not all(np.all(np.isfinite(p)) for p in params):
                raise DivergenceError(
                    epoch, f"parameters diverged during epoch {epoch}"
                )
            obj = total_objective(model, X, Y, loss_kind, reg)
            val_loss = None
            if val_set is not None:
                _, _, Yhat = forward_batch(model, val_set.features)
                val_loss = loss_batch(loss_kind, Yhat, val_set.encoded)
        except (ValueError, OverflowError, DegenerateIterateError) as exc:
            # blow-ups surface as finiteness errors deeper down; shapes were
            # validated before the loop
            raise DivergenceError(
                epoch, f"parameters diverged during epoch {epoch}: {exc}"
            ) from None
        if not math.isfinite(obj.total) or (
            val_loss is not None and not math.isfinite(val_loss)
        ):
            raise DivergenceError(
                epoch, f"objective diverged at epoch {epoch}: {obj.total}"
            )
        history.append(
            EpochRecord(
                epoch=epoch,
                train_objective=obj.total,
                train_loss=obj.loss,
                val_loss=val_loss,
                lambda_dom=_layer_lambdas(model, reg),
            )
        )

        if es.enabled:
            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                best_params = [p.copy() for p in params]
            elif epoch - best_epoch >= es.patience:
                break
        else:
            best_epoch = epoch

    if es.enabled and best_params is not None:
        set_model_params(model, best_params)

    return model, TrainHistory(history, best_epoch)


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
    maps a grid cell to its regularizers. Cells run one after another in
    grid order; fold assignment and per-cell model seeds derive from
    config.seed. Ties in the score go to the lexicographically smallest
    (c_a, c_b).
    """
    if not grid_a or not grid_b:
        raise ValueError("both grid axes must be nonempty")
    if select_by not in ("accuracy", "loss"):
        raise ValueError(f"select_by must be 'accuracy' or 'loss', got {select_by!r}")
    fold_indices = kfold(dataset, folds, config.seed)
    all_idx = np.arange(len(dataset))

    def run_cell(ia, c_a, ib, c_b):
        reg = reg_builder(c_a, c_b)
        accs = []
        losses = []
        for f, held in enumerate(fold_indices):
            train_idx = np.setdiff1d(all_idx, held)
            m = model_builder(_cell_seed(config.seed, ia, ib, f))
            sgd_train(m, dataset.subset(train_idx), loss_kind, reg, config)
            scores = evaluate(m, dataset.subset(held), loss_kind)
            accs.append(scores["accuracy"])
            losses.append(scores["mean_loss"])
        return {
            "c_a": c_a,
            "c_b": c_b,
            "mean_accuracy": float(np.mean(accs)),
            "mean_loss": float(np.mean(losses)),
            "fold_accuracies": accs,
        }

    cells = [
        run_cell(ia, c_a, ib, c_b)
        for ia, c_a in enumerate(grid_a)
        for ib, c_b in enumerate(grid_b)
    ]

    best = None
    for cell in cells:
        score = cell["mean_accuracy"] if select_by == "accuracy" else -cell["mean_loss"]
        key = (cell["c_a"], cell["c_b"])
        if (
            best is None
            or score > best[0]
            or (score == best[0] and key < best[1])
        ):
            best = (score, key, cell["mean_accuracy"])
    return GridSearchResult(cells, best[1], best[2])


def save_grid_result(result, path):
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema_version": 1, "kind": "grid_search"}) + "\n")
        for cell in result.cells:
            fh.write(json.dumps(cell, sort_keys=True) + "\n")
        fh.write(
            json.dumps(
                {
                    "selected_c_a": result.selected[0],
                    "selected_c_b": result.selected[1],
                    "selected_accuracy": result.selected_accuracy,
                },
                sort_keys=True,
            )
            + "\n"
        )
