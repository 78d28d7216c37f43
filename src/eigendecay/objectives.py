"""Loss functions, weight penalties, and dropout masking.

The total training objective is the batch-mean loss plus one penalty per
weight matrix. The eigenvalue-decay penalty charges C * sqrt(lambda_dom) of
the layer gram matrix W W^T, with lambda_dom estimated by the power method
so the whole term stays differentiable in the weights.
"""

from dataclasses import dataclass
import math

import numpy as np

from .linalg import as_matrix, gram, power_dominant_eigen
from .model import forward_batch

LOSS_KINDS = (
    "mse",
    "binary_cross_entropy",
    "categorical_cross_entropy",
    "multiclass_hinge",
)

PENALTY_KINDS = ("none", "eigen_decay", "l1", "l2")


def _as_batch(a):
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return a


def _check_pm1(y, kind):
    if not np.all(np.abs(y) == 1.0):
        raise ValueError(f"{kind} targets must be encoded as +/-1")


def _logsumexp(z):
    m = np.max(z, axis=-1, keepdims=True)
    return m[..., 0] + np.log(np.sum(np.exp(z - m), axis=-1))


def _loss_per_example(kind, Yhat, Y):
    if kind == "mse":
        _check_pm1(Y, kind)
        return np.mean((Yhat - Y) ** 2, axis=-1)
    if kind == "multiclass_hinge":
        _check_pm1(Y, kind)
        return np.sum(np.maximum(0.0, 1.0 - Y * Yhat), axis=-1)
    if kind == "binary_cross_entropy":
        _check_pm1(Y, kind)
        t = (Y + 1.0) / 2.0
        # -[t log s(z) + (1-t) log(1-s(z))] = softplus(z) - t z, summed
        return np.sum(np.logaddexp(0.0, Yhat) - t * Yhat, axis=-1)
    if kind == "categorical_cross_entropy":
        _check_pm1(Y, kind)
        t = (Y + 1.0) / 2.0
        return np.sum(t, axis=-1) * _logsumexp(Yhat) - np.sum(t * Yhat, axis=-1)
    raise ValueError(f"unknown loss kind {kind!r}; pick one of {LOSS_KINDS}")


def loss_batch(kind, Yhat, Y):
    """Mean loss over a batch of row-per-example outputs and targets.

    A stack of batches (R, n, L) gives an (R,) array of each member's mean,
    with the bits of the 2-D call on that member.
    """
    Yhat = _as_batch(Yhat)
    Y = _as_batch(Y)
    if Yhat.shape != Y.shape:
        raise ValueError(f"shape mismatch {Yhat.shape} vs {Y.shape}")
    if Yhat.shape[-2] == 0:
        raise ValueError("batch must be nonempty")
    per_example = _loss_per_example(kind, Yhat, Y)
    if per_example.ndim == 1:
        return float(np.mean(per_example))
    return np.mean(per_example, axis=-1)


def loss_gradient_batch(kind, Yhat, Y):
    """Gradient of the batch-mean loss with respect to each output row.

    A stack of batches (R, n, L) gives each member's gradient, with the bits
    of the 2-D call on that member.
    """
    Yhat = _as_batch(Yhat)
    Y = _as_batch(Y)
    if Yhat.shape != Y.shape:
        raise ValueError(f"shape mismatch {Yhat.shape} vs {Y.shape}")
    n, L = Yhat.shape[-2:]
    if n == 0:
        raise ValueError("batch must be nonempty")
    if kind == "mse":
        _check_pm1(Y, kind)
        return 2.0 * (Yhat - Y) / (L * n)
    if kind == "multiclass_hinge":
        _check_pm1(Y, kind)
        violated = (1.0 - Y * Yhat) > 0.0
        return np.where(violated, -Y, 0.0) / n
    if kind == "binary_cross_entropy":
        _check_pm1(Y, kind)
        t = (Y + 1.0) / 2.0
        s = 1.0 / (1.0 + np.exp(-np.clip(Yhat, -500, 500)))
        return (s - t) / n
    if kind == "categorical_cross_entropy":
        _check_pm1(Y, kind)
        t = (Y + 1.0) / 2.0
        z = Yhat - np.max(Yhat, axis=-1, keepdims=True)
        ez = np.exp(z)
        p = ez / np.sum(ez, axis=-1, keepdims=True)
        return (p * np.sum(t, axis=-1, keepdims=True) - t) / n
    raise ValueError(f"unknown loss kind {kind!r}; pick one of {LOSS_KINDS}")


def eigen_decay_penalty(w, C, p=9, *, lambda_dom=None):
    """C * sqrt of the power-method dominant eigenvalue of W W^T.

    The zero matrix has dominant eigenvalue 0 and is handled directly; the
    power iteration itself cannot start there. lambda_dom, when given, is
    that estimate already computed for these weights and p.
    """
    if C < 0:
        raise ValueError(f"penalty coefficient must be >= 0, got {C}")
    if C == 0.0:
        return 0.0
    w = as_matrix(w)
    if not np.any(w):
        return 0.0
    if lambda_dom is None:
        lambda_dom = power_dominant_eigen(gram(w), p).lambda_dom
    return C * math.sqrt(max(lambda_dom, 0.0))


def l1_penalty(w, c):
    if c < 0:
        raise ValueError(f"penalty coefficient must be >= 0, got {c}")
    return c * float(np.sum(np.abs(as_matrix(w))))


def l2_penalty(w, c):
    if c < 0:
        raise ValueError(f"penalty coefficient must be >= 0, got {c}")
    w = as_matrix(w)
    return c * float(np.sum(w * w))


def sample_dropout_masks(rates, hidden_dims, batch_size, rng):
    """Pre-scaled dropout masks per hidden layer, or None when all rates
    are zero. Entries are 0 or 1/(1-rate)."""
    if rates is None or not any(r > 0 for r in rates):
        return None
    if len(rates) != len(hidden_dims):
        raise ValueError("one dropout rate per hidden layer expected")
    masks = []
    for rate, width in zip(rates, hidden_dims):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
        if rate == 0.0:
            masks.append(None)
        else:
            keep = rng.random((batch_size, width)) >= rate
            masks.append(keep / (1.0 - rate))
    return masks


@dataclass(frozen=True)
class LayerPenalty:
    kind: str = "none"
    c: float = 0.0
    p: int = 9  # power-method steps, eigen_decay only

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(
                f"unknown penalty kind {self.kind!r}; pick one of {PENALTY_KINDS}"
            )
        if self.c < 0:
            raise ValueError(f"penalty coefficient must be >= 0, got {self.c}")
        if self.p < 1:
            raise ValueError(f"power-method step count must be >= 1, got {self.p}")

    def value(self, w, *, lambda_dom=None):
        if self.kind == "none" or self.c == 0.0:
            return 0.0
        if self.kind == "eigen_decay":
            return eigen_decay_penalty(w, self.c, self.p, lambda_dom=lambda_dom)
        if self.kind == "l1":
            return l1_penalty(w, self.c)
        return l2_penalty(w, self.c)


@dataclass(frozen=True)
class RegularizerSpec:
    layers: tuple  # one LayerPenalty per weight matrix, hidden first
    dropout: tuple = ()  # one rate per hidden layer; empty means none

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "dropout", tuple(self.dropout))
        for entry in self.layers:
            if not isinstance(entry, LayerPenalty):
                raise ValueError("layers must hold LayerPenalty entries")
        for rate in self.dropout:
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")

    @classmethod
    def none(cls, n_layers, n_hidden=None):
        if n_hidden is None:
            n_hidden = n_layers - 1
        return cls(
            layers=tuple(LayerPenalty() for _ in range(n_layers)),
            dropout=(0.0,) * n_hidden,
        )

    def check_against(self, model):
        if len(self.layers) != len(model.layers):
            raise ValueError(
                f"{len(self.layers)} penalty entries for a model with "
                f"{len(model.layers)} weight layers"
            )
        if self.dropout and len(self.dropout) != len(model.hidden):
            raise ValueError(
                f"{len(self.dropout)} dropout rates for {len(model.hidden)} "
                f"hidden layers"
            )

    @property
    def has_dropout(self):
        return any(r > 0 for r in self.dropout)


@dataclass
class ObjectiveValue:
    loss: float
    penalties: tuple
    total: float


def penalties(model, reg, *, lambdas=None):
    """Per-layer penalty values; lambdas, when given, holds each layer's
    power-method estimate for the eigen-decay value to reuse.

    A stacked model (see model.DenseLayer) takes reg as one RegularizerSpec
    per member, and lambdas as one tuple per member, and gives one tuple of
    values per member.
    """
    stacked = model.output.weights.ndim == 3
    regs = list(reg) if stacked else [reg]
    if lambdas is None:
        lambdas = [(None,) * len(model.layers)] * len(regs)
    elif not stacked:
        lambdas = [lambdas]
    weights = [layer.weights if stacked else layer.weights[None] for layer in model.layers]
    out = []
    for r, spec in enumerate(regs):
        spec.check_against(model)
        out.append(tuple(
            entry.value(w[r], lambda_dom=lam)
            for entry, w, lam in zip(spec.layers, weights, lambdas[r])
        ))
    return out if stacked else out[0]


def _objective_value(loss, pens):
    total = loss
    for p in pens:
        total += p
    return ObjectiveValue(loss, pens, total)


def total_objective(model, X, Y, loss_kind, reg, dropout_masks=None, *, lambdas=None):
    """Batch-mean loss plus per-layer penalties.

    Pass dropout_masks (from sample_dropout_masks) to evaluate the
    stochastic training objective at a fixed mask; omitting them is
    evaluation mode. lambdas is passed on to penalties().

    A stacked model takes (R, n, .) batches and masks and reg and lambdas
    as penalties() does, and gives one ObjectiveValue per member, each with
    the bits of the 2-D call on that member.
    """
    X = np.asarray(X, dtype=float)
    stacked = model.output.weights.ndim == 3
    if X.ndim != 2 + stacked or X.shape[-2] == 0:
        shape = "(R, n, d)" if stacked else "(n, d)"
        raise ValueError(f"batch must be a nonempty {shape} array")
    _, _, Yhat = forward_batch(model, X, dropout_masks)
    e = loss_batch(loss_kind, Yhat, Y)
    pens = penalties(model, reg, lambdas=lambdas)
    if not stacked:
        return _objective_value(e, pens)
    return [_objective_value(float(er), p) for er, p in zip(e, pens)]
