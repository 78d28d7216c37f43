"""Exact reverse-mode gradients of the training objective.

The eigenvalue penalty is differentiated through the unrolled power
iteration: the estimated eigenvector is a function of the weights, not a
constant, so the gradient here is the exact derivative of the quantity the
objective actually computes. A central-difference oracle is provided for
verification.
"""

from dataclasses import dataclass, field
import warnings

import numpy as np

from .linalg import (
    ITERATE_OVERFLOW,
    NONFINITE_MATRIX,
    DegenerateIterateError,
    gram,
)
from .model import STACK_FLOATS, _with_params, forward_batch, model_params
from .objectives import RegularizerSpec, _penalized, loss_gradient_batch, total_objective

# below this estimated eigenvalue the sqrt gradient is treated as zero
# rather than letting 1/sqrt blow up on a near-zero-spectrum layer
EIGEN_GRAD_FLOOR = 1e-12


@dataclass
class Gradients:
    dW: list  # per layer, hidden first then output
    db: list
    # stacked backward only: member -> the error that kept its eigen-decay
    # gradient from being formed
    failed: dict = field(default_factory=dict)

    def as_list(self):
        out = []
        for w, b in zip(self.dW, self.db):
            out.append(w)
            out.append(b)
        return out


DEGENERATE_ITERATE = (
    "power iterate hit the zero vector while differentiating the eigenvalue penalty"
)
# the iterate's squared norm passes float range for gram entries above about
# 1e154, where the penalty value is still finite, so the next iterate is zero
NORM_OVERFLOW = (
    "power iterate norm overflowed while differentiating the eigenvalue penalty"
)


def eigen_decay_gradient(w, C, p=9):
    """Gradient of C * sqrt(lambda_pm(W W^T)) with respect to W.

    lambda_pm is the Rayleigh quotient of the p-step power iterate from the
    all-ones vector, normalized at each step as power_dominant_eigen does.
    The backward pass walks the iteration in reverse, so the result is the
    exact gradient of the estimate at finite p.

    W may be a stack (R, m, n) of same-shape members, with C one scalar or
    one coefficient per member. The stack returns (grad, failed): each
    slice of grad has the bits of the 2-D call on that member, and failed
    maps each member whose gradient cannot be formed to its error, with a
    zero gradient. A 2-D W is the stack of one and returns the gradient or
    raises its error: ValueError for non-finite weights,
    DegenerateIterateError where an iterate hits the zero vector (or its
    norm overflows, which zeroes the next one), and,
    where the estimate leaves float range, what the penalty value raises on
    those weights (ValueError if the gram overflows, OverflowError if an
    iterate does).
    """
    w = np.asarray(w, dtype=float)
    stacked = w.ndim == 3
    if w.ndim != 2 + stacked:
        raise ValueError(f"expected a 2-d array, got shape {w.shape}")
    if not stacked and not np.isfinite(w).all():
        raise ValueError(NONFINITE_MATRIX)
    ws = w if stacked else w[None]
    cs = np.broadcast_to(np.asarray(C, dtype=float), ws.shape[:1])
    if np.any(cs < 0):
        raise ValueError(f"penalty coefficient must be >= 0, got {C}")
    if p < 1:
        raise ValueError(f"iteration count must be >= 1, got {p}")
    grad, failed = _eigen_decay_stack(ws, cs, p)
    if stacked:
        return grad, failed
    if failed:
        raise failed[0]
    return grad[0]


def _eigen_decay_stack(ws, cs, p):
    """eigen_decay_gradient's (grad, failed) for a weight stack. failed
    maps each member whose gradient cannot be formed to the error its 2-D
    call raises, and each of them gets a zero gradient.

    Iterates are (R, n, 1) columns, so each GEMV and sqrt-of-dot norm has
    the bits of the 1-D arithmetic on that member. Failures are told apart
    after the loop; numpy's warnings for them would just precede the typed
    error.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m = gram(ws, check=False)
        # the gram diagonal holds each row's sum of squares, which is not
        # finite where the row has a non-finite entry, and nonzero only
        # where the row is. Only a member whose diagonal is not finite (a
        # finite W whose squares overflow) or all zero (squares that
        # underflow) needs its weights scanned.
        diag = np.diagonal(m, axis1=1, axis2=2)
        finite = np.isfinite(diag).all(axis=1)
        nonzero = diag.any(axis=1)
        for r in np.flatnonzero(~finite | ~nonzero).tolist():
            finite[r] = np.isfinite(ws[r]).all()
            nonzero[r] = ws[r].any()
    failed = {r: ValueError(NONFINITE_MATRIX) for r in np.flatnonzero(~finite).tolist()}
    # the power iteration cannot start from the zero matrix; its penalty is
    # 0 (eigen_decay_penalty) and zero is a subgradient of C*||W||_2
    live = (cs != 0.0) & finite & nonzero
    if not live.any():
        return np.zeros_like(ws), failed

    # members that are not live run along and are zeroed at the end
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # forward pass, keeping each post-step iterate
        iterates = [np.ones(ws.shape[:2] + (1,))]
        norms = []
        v = iterates[0]
        for _ in range(p):
            v = m @ v
            nrm = np.sqrt(v.swapaxes(1, 2) @ v)
            v /= nrm
            norms.append(nrm)
            iterates.append(v)
        steps = np.concatenate(norms, axis=2)[:, 0]
        den = v.swapaxes(1, 2) @ v
        hit_zero = (steps == 0.0).any(axis=1) | (den == 0.0)[:, 0, 0]
        degenerate = live & hit_zero
        live &= ~degenerate
        mv = m @ v
        num = mv.swapaxes(1, 2) @ v
        lam = num / den
        # a gram or iterate past float range; the penalty value fails there
        overflow = live & ~np.isfinite(lam[:, 0, 0])
        live &= ~overflow

        below = live & (lam[:, 0, 0] < EIGEN_GRAD_FLOOR)
        if below.any():
            warnings.warn(
                "eigenvalue penalty gradient treated as zero: dominant-eigenvalue "
                f"estimate {lam[below, 0, 0][0]:.3e} is below {EIGEN_GRAD_FLOOR:.0e}",
                RuntimeWarning,
                stacklevel=3,
            )

        # reverse pass: d(lam)/dM accumulated in gm, d(lam)/dv walked
        # backwards; each outer product is formed in one scratch buffer
        dnum = 1.0 / den
        dden = -num / (den * den)
        gm = v * v.swapaxes(1, 2)
        gm *= dnum
        outer = np.empty_like(gm)
        dv = 2.0 * mv * dnum + 2.0 * v * dden
        for t in range(p, 0, -1):
            vt = iterates[t]
            # v_t = u_t / ||u_t||
            du = (dv - vt * (vt.swapaxes(1, 2) @ dv)) / norms[t - 1]
            gm += np.multiply(du, iterates[t - 1].swapaxes(1, 2), out=outer)
            if t > 1:  # v_0 is the fixed start, so nothing reads its dv
                dv = m @ du
        # M = W W^T, so dL/dW = (G + G^T) W
        grad = np.add(gm, gm.swapaxes(1, 2), out=outer) @ ws
        grad *= cs[:, None, None] / (2.0 * np.sqrt(lam))
    grad[~live | below] = 0.0
    for r in np.flatnonzero(degenerate | overflow).tolist():
        if degenerate[r]:
            failed[r] = DegenerateIterateError(
                NORM_OVERFLOW if (steps[r] == np.inf).any() else DEGENERATE_ITERATE)
        elif np.isfinite(m[r]).all():
            failed[r] = OverflowError(ITERATE_OVERFLOW)
        else:
            failed[r] = ValueError(NONFINITE_MATRIX)
    return grad, failed


def _add_penalty_gradients(dW, model, regs, stacked):
    """Adds each member's weight-penalty gradient to dW, layer by layer.

    The members of a stack that share a layer's penalty kind and step count
    get one call. Members with C == 0 or kind none get no add at all (adding
    0.0 would turn -0.0 into +0.0). Returns {member: error} for members
    whose eigen-decay gradient cannot be formed, and adds nothing for them;
    the first error in layer order is kept, as a single run would raise it.
    """
    failed = {}
    for k, layer in enumerate(model.layers):
        w = layer.weights if stacked else layer.weights[None]
        d = dW[k] if stacked else dW[k][None]
        for (kind, p), members in _penalized(regs, k).items():
            idx = np.array(members)
            c = np.array([regs[r].layers[k].c for r in members])
            wk = w if len(idx) == len(w) else w[idx]
            if kind == "l1":
                pg = c[:, None, None] * np.sign(wk)
            elif kind == "l2":
                pg = (2.0 * c)[:, None, None] * wk
            else:
                pg, errors = eigen_decay_gradient(wk, c, p)
                for j, exc in errors.items():
                    failed.setdefault(int(idx[j]), exc)
                if errors:
                    ok = [j for j in range(len(idx)) if j not in errors]
                    idx, pg = idx[ok], pg[ok]
            if len(idx) == len(d):
                d += pg
            elif len(idx):
                d[idx] += pg
        dW[k] = d if stacked else d[0]
    return failed


def backward(model, X, Y, loss_kind, reg, dropout_masks=None):
    """Gradient of the total objective at the current parameters.

    dropout_masks must match the masks used to evaluate the objective (or
    be omitted along with them) so the differentiated function is
    deterministic.

    A stacked model (weights (R, out, in), see model.DenseLayer) takes
    (R, n, .) batches, masks and gradients, and reg as one RegularizerSpec
    per member, each already checked against the model (train._member
    does); each member's slice has the bits of the 2-D call, which is
    the stack of one. Where the 2-D call raises because an eigen-decay
    layer's weights are not finite or its power iterate degenerates or
    overflows, the stacked call records the error in Gradients.failed and
    goes on.

    Every array of the result is new and the caller's: the SGD step
    scales each one in place. The slopes are read from the activations
    forward_batch hands back from before dropout.
    """
    X = np.asarray(X, dtype=float)
    stacked = model.output.weights.ndim == 3
    if stacked:
        regs = list(reg)
        members = model.output.weights.shape[0]
        if len(regs) != members:
            raise ValueError(f"{len(regs)} regularizer specs for {members} members")
    else:
        reg.check_against(model)
        regs = [reg]

    acts, ys, Yhat = forward_batch(model, X, dropout_masks)
    G = loss_gradient_batch(loss_kind, Yhat, Y)

    K = len(model.hidden)
    dW = [None] * (K + 1)
    db = [None] * (K + 1)

    out = model.output
    dW[K] = G.swapaxes(-1, -2) @ ys[-1]
    db[K] = G.sum(axis=-2)
    D = G @ out.weights

    for k in range(K - 1, -1, -1):
        layer = model.hidden[k]
        if dropout_masks is not None and dropout_masks[k] is not None:
            D *= dropout_masks[k]
        D *= layer.activation.slope(acts[k])
        prev = X if k == 0 else ys[k - 1]
        dW[k] = D.swapaxes(-1, -2) @ prev
        db[k] = D.sum(axis=-2)
        if k > 0:
            D = D @ layer.weights

    failed = _add_penalty_gradients(dW, model, regs, stacked)
    if failed and not stacked:
        raise failed[0]
    return Gradients(dW, db, failed)


def _check_step(h):
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")


def finite_diff_gradient(objective_fn, params, h=1e-5, *, member_floats=0):
    """Central differences of a scalar function over a list of arrays.

    The orig + h and orig - h copies of params for every entry are members
    of one stack, in parameter order, entry by entry, + before -.
    objective_fn takes the list of stacked arrays, each with a leading
    member axis, and returns one value per member. It is called once per
    chunk of members, each chunk holding as many as keep the parameter
    copies plus member_floats per member (what the objective allocates for
    each) near model.STACK_FLOATS floats. params are not changed.
    """
    _check_step(h)
    bounds = np.cumsum([0] + [a.size for a in params])
    flat = np.concatenate([a.reshape(-1) for a in params])
    # member 2i is entry i plus h, member 2i + 1 is entry i minus h
    shifted = np.stack([flat + h, flat - h], axis=1).reshape(-1)
    chunk = max(1, STACK_FLOATS // (flat.size + member_floats))
    values = np.empty(shifted.size)
    for start in range(0, shifted.size, chunk):
        members = np.arange(start, min(start + chunk, shifted.size))
        entries = members // 2
        stacks = []
        for a, lo, hi in zip(params, bounds[:-1], bounds[1:]):
            stack = np.repeat(a.reshape(1, -1), len(members), axis=0)
            mine = np.flatnonzero((entries >= lo) & (entries < hi))
            stack[mine, entries[mine] - lo] = shifted[members[mine]]
            stacks.append(stack.reshape((len(members),) + a.shape))
        values[members] = objective_fn(stacks)
    with np.errstate(all="ignore"):  # as the float arithmetic it replaced
        grad = (values[0::2] - values[1::2]) / (2.0 * h)
    return [grad[lo:hi].reshape(a.shape) for a, lo, hi in zip(params, bounds[:-1], bounds[1:])]


def finite_diff_model_gradient(model, X, Y, loss_kind, reg, h=1e-5, dropout_masks=None):
    """Finite-difference gradient of the total objective, shaped like
    backward()'s result.

    Each chunk of perturbations (see finite_diff_gradient) is one stacked
    total_objective call: one forward pass and loss over broadcast views of
    the batch and masks, and one power iteration per penalized eigen-decay
    layer and step count (objectives.penalties). Each member's value has
    the bits of total_objective on that perturbation. Where total_objective
    raises for some perturbation, this raises the error of the first such
    perturbation.
    """
    _check_step(h)
    X = np.asarray(X, dtype=float)
    # the errors no perturbation changes, raised as total_objective raises
    # them: the batch, masks and loss checks, then the spec's
    total_objective(model, X, Y, loss_kind,
                    RegularizerSpec.none(len(model.layers), len(model.hidden)),
                    dropout_masks)
    reg.check_against(model)
    params = model_params(model)
    n, widths = X.shape[0], [model.n_in] + [layer.out_dim for layer in model.layers]
    masks = None
    if dropout_masks is not None:
        masks = [None if m is None else np.asarray(m)[None] for m in dropout_masks]

    def objective(stacks):
        R = len(stacks[0])
        values, _, failed = total_objective(_with_params(model, stacks), X[None],
                                            np.broadcast_to(Y, (R, n, model.n_out)),
                                            loss_kind, [reg] * R, masks)
        if failed:
            raise failed[min(failed)]
        return [v.total for v in values]

    flat = finite_diff_gradient(objective, params, h, member_floats=n * max(widths))
    return Gradients(flat[0::2], flat[1::2])
