"""Exact reverse-mode gradients of the training objective.

The eigenvalue penalty is differentiated through the unrolled power
iteration: the estimated eigenvector is a function of the weights, not a
constant, so the gradient here is the exact derivative of the quantity the
objective actually computes. A central-difference oracle is provided for
verification.
"""

from dataclasses import dataclass
import math
import warnings

import numpy as np

from .linalg import DegenerateIterateError, as_matrix, gram
from .model import forward_batch, model_params
from .objectives import loss_gradient_batch, total_objective

# below this estimated eigenvalue the sqrt gradient is treated as zero
# rather than letting 1/sqrt blow up on a near-zero-spectrum layer
EIGEN_GRAD_FLOOR = 1e-12


@dataclass
class Gradients:
    dW: list  # per layer, hidden first then output
    db: list

    def as_list(self):
        out = []
        for w, b in zip(self.dW, self.db):
            out.append(w)
            out.append(b)
        return out


def eigen_decay_gradient(w, C, p=9, normalize_each_step=True):
    """Gradient of C * sqrt(lambda_pm(W W^T)) with respect to W.

    lambda_pm is the Rayleigh quotient of the p-step power iterate from the
    all-ones vector. The backward pass walks the iteration in reverse, so
    the result is the exact gradient of the estimate at finite p. Per-step
    normalization rescales the iterate only; the quotient and its gradient
    are unchanged in exact arithmetic.
    """
    w = as_matrix(w)
    if C < 0:
        raise ValueError(f"penalty coefficient must be >= 0, got {C}")
    if p < 1:
        raise ValueError(f"iteration count must be >= 1, got {p}")
    if C == 0.0 or not np.any(w):
        # the power iteration cannot start from the zero matrix; its penalty
        # is 0 (eigen_decay_penalty) and zero is a subgradient of C*||W||_2
        return np.zeros_like(w)
    m = gram(w)
    n = m.shape[0]

    # forward pass, keeping each post-step iterate
    iterates = [np.ones(n)]
    norms = []
    v = iterates[0]
    for _ in range(p):
        v = m @ v
        if normalize_each_step:
            nrm = float(np.linalg.norm(v))
            if nrm == 0.0:
                raise DegenerateIterateError(
                    "power iterate hit the zero vector while differentiating "
                    "the eigenvalue penalty"
                )
            v = v / nrm
            norms.append(nrm)
        iterates.append(v)
    den = float(v @ v)
    if den == 0.0:
        raise DegenerateIterateError(
            "power iterate hit the zero vector while differentiating the "
            "eigenvalue penalty"
        )
    mv = m @ v
    num = float(mv @ v)
    lam = num / den

    if lam < EIGEN_GRAD_FLOOR:
        warnings.warn(
            "eigenvalue penalty gradient treated as zero: dominant-eigenvalue "
            f"estimate {lam:.3e} is below {EIGEN_GRAD_FLOOR:.0e}",
            RuntimeWarning,
            stacklevel=2,
        )
        return np.zeros_like(w)

    # reverse pass: d(lam)/dM accumulated in gm, d(lam)/dv walked backwards
    dnum = 1.0 / den
    dden = -num / (den * den)
    gm = np.outer(v, v) * dnum
    dv = 2.0 * mv * dnum + 2.0 * v * dden
    for t in range(p, 0, -1):
        vt = iterates[t]
        if normalize_each_step:
            # v_t = u_t / ||u_t||
            du = (dv - vt * float(vt @ dv)) / norms[t - 1]
        else:
            du = dv
        gm += np.outer(du, iterates[t - 1])
        dv = m @ du
    # M = W W^T, so dL/dW = (G + G^T) W
    dlam_dw = (gm + gm.T) @ w
    return (C / (2.0 * math.sqrt(lam))) * dlam_dw


def _penalty_gradient(entry, w):
    if entry.kind == "none" or entry.c == 0.0:
        return None
    if entry.kind == "eigen_decay":
        return eigen_decay_gradient(w, entry.c, entry.p)
    if entry.kind == "l1":
        return entry.c * np.sign(w)
    return 2.0 * entry.c * w


def backward(model, X, Y, loss_kind, reg, dropout_masks=None):
    """Gradient of the total objective at the current parameters.

    dropout_masks must match the masks used to evaluate the objective (or
    be omitted along with them) so the differentiated function is
    deterministic.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("batch must be a nonempty (n, d) array")
    reg.check_against(model)

    vs, ys, Yhat = forward_batch(model, X, dropout_masks)
    G = loss_gradient_batch(loss_kind, Yhat, Y)

    K = len(model.hidden)
    dW = [None] * (K + 1)
    db = [None] * (K + 1)

    out = model.output
    dW[K] = G.T @ ys[-1]
    db[K] = G.sum(axis=0)
    D = G @ out.weights

    for k in range(K - 1, -1, -1):
        layer = model.hidden[k]
        if dropout_masks is not None and dropout_masks[k] is not None:
            D = D * dropout_masks[k]
        D = D * layer.activation.deriv(vs[k])
        prev = X if k == 0 else ys[k - 1]
        dW[k] = D.T @ prev
        db[k] = D.sum(axis=0)
        D = D @ layer.weights

    for k, (entry, layer) in enumerate(zip(reg.layers, model.layers)):
        pg = _penalty_gradient(entry, layer.weights)
        if pg is not None:
            dW[k] = dW[k] + pg

    return Gradients(dW, db)


def finite_diff_gradient(objective_fn, params, h=1e-5):
    """Central differences of a scalar function over a list of arrays.

    Entries are perturbed in place and restored, so objective_fn may simply
    close over whatever structure the arrays live in.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    grads = []
    for arr in params:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = objective_fn(params)
            flat[i] = orig - h
            fm = objective_fn(params)
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def finite_diff_model_gradient(model, X, Y, loss_kind, reg, h=1e-5, dropout_masks=None):
    """Finite-difference gradient of the total objective, shaped like
    backward()'s result."""
    params = model_params(model)

    def objective(_):
        return total_objective(model, X, Y, loss_kind, reg, dropout_masks).total

    flat = finite_diff_gradient(objective, params, h)
    dW = flat[0::2]
    db = flat[1::2]
    return Gradients(dW, db)
