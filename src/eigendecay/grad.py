"""Exact reverse-mode gradients of the training objective.

The eigenvalue penalty is differentiated through the unrolled power
iteration, the very steps linalg._power takes for the penalty value: the
estimated eigenvector is a function of the weights, not a constant, so the
gradient here is the exact derivative of the quantity the objective
actually computes. A central-difference oracle is provided for
verification.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import _power, gram
from .model import STACK_FLOATS, _with_params, forward_batch, model_params
from .objectives import RegularizerSpec, _grouped, loss_gradient_batch, total_objective

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


def eigen_decay_gradient(ws, cs, p):
    """(grad, failed): the gradient of C * sqrt(lambda_pm(W W^T)) with
    respect to W for each member of a weight stack ws (R, m, n). cs (R,)
    and p come from one objectives._StackSpecs group: each C is finite and
    positive, and p >= 1.

    lambda_pm is the penalty value's estimate: linalg._power on the gram,
    whose steps divide each iterate by its largest entry and then its
    2-norm. The backward pass walks that iteration in reverse, so the
    result is the exact gradient of the estimate at finite p. Each slice
    of grad has the bits of the stack of one on that member, and a zero W
    gets 0, a subgradient of C*||W||_2, as does an estimate at or below 0,
    where the value is flat. Like the spectral norm's C * u v^T, the
    gradient does not shrink or grow with W: s * W has the gradient of W,
    up to rounding, at any scale s where the value is finite and its gram
    does not underflow.

    failed maps each member whose gradient cannot be formed to its error,
    and its gradient is zero. A member fails exactly where the penalty
    value fails, with the value's error: ValueError for a gram that is not
    finite, DegenerateIterateError for an iterate that hits the zero
    vector, OverflowError for one that overflows.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m = gram(ws)
    lam, failed, (iterates, peaks, norms, mv, num, den) = _power(m, p)
    # members that fail or read lam <= 0 run along and are zeroed at the end
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # d(lam)/dM is the sum of outer products du_t v_(t-1)^T and
        # v v^T / den; the du_t are walked backwards from d(lam)/dv and
        # the sum is one product over the p + 1 columns
        v = iterates[p]
        dnum = 1.0 / den
        dden = -num / (den * den)
        dv = 2.0 * mv * dnum + 2.0 * v * dden
        du = [v * dnum]
        for t in range(p, 0, -1):
            vt = iterates[t]
            # v_t = u_t / (peak_t * norm_t), and v_t is scale-free in u_t
            u = (dv - vt * (vt.swapaxes(1, 2) @ dv)) / norms[t - 1] / peaks[t - 1]
            du.append(u)
            if t > 1:  # v_0 is the fixed start, so nothing reads its dv
                dv = m @ u
        gm = np.concatenate(du, axis=2) @ np.concatenate(iterates[::-1], axis=2).swapaxes(1, 2)
        # M = W W^T, so dL/dW = (G + G^T) W
        grad = (gm + gm.swapaxes(1, 2)) @ ws
        grad *= cs[:, None, None] / (2.0 * np.sqrt(lam))[:, None, None]
    # a finite, positive estimate everywhere (a nan min fails the
    # comparison): nothing to mark or zero
    if lam.min() > 0.0:
        return grad, failed
    # the value reads 0 for a zero W and max(lam, 0), which is flat where
    # rounding puts a start near the kernel at lam <= 0
    for r in list(failed):
        if not ws[r].any():
            del failed[r]
    grad[~(lam > 0.0)] = 0.0
    return grad, failed


def _add_penalty_gradients(dW, model, specs, stacked):
    """Adds each member's weight-penalty gradient to dW, layer by layer.

    The members of a stack that share a layer's penalty kind and step count
    (one group of the _StackSpecs specs) get one call. Members with C == 0
    or kind none get no add at all (adding 0.0 would turn -0.0 into +0.0).
    Returns {member: error} for members whose eigen-decay gradient cannot
    be formed, and adds nothing for them; the first error in layer order is
    kept, as a single run would raise it.
    """
    failed = {}
    for k, (layer, groups) in enumerate(zip(model.layers, specs.layers)):
        w = layer.weights if stacked else layer.weights[None]
        d = dW[k] if stacked else dW[k][None]
        for g in groups:
            idx, c = g.members, g.c
            wk = w if len(idx) == len(w) else w[idx]
            if g.kind == "l1":
                pg = c[:, None, None] * np.sign(wk)
            elif g.kind == "l2":
                pg = (2.0 * c)[:, None, None] * wk
            else:
                pg, errors = eigen_decay_gradient(wk, c, g.p)
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
    does), or as their objectives._StackSpecs, which train._sgd_stack builds
    once per set of live members; each member's slice has the bits of the
    2-D call, which is the stack of one. Where the 2-D call raises because
    an eigen-decay layer's weights are not finite or its power iterate
    degenerates or overflows, the stacked call records the error in
    Gradients.failed and goes on.

    Every array of the result is new and the caller's: the SGD step
    scales each one in place. The slopes are read from the activations
    forward_batch hands back from before dropout.
    """
    X = np.asarray(X, dtype=float)
    stacked = model.output.weights.ndim == 3
    if stacked:
        specs = _grouped(reg)
        members = model.output.weights.shape[0]
        if len(specs) != members:
            raise ValueError(f"{len(specs)} regularizer specs for {members} members")
    else:
        reg.check_against(model)
        specs = _grouped([reg])

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

    failed = _add_penalty_gradients(dW, model, specs, stacked)
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
