"""Randomized verification suites: power-method fidelity against the exact
solver, the quadratic-form eigenvalue bound, gradient checks against
central differences, and the per-layer denominator inequality used by the
margin bound. Each suite is deterministic given its seed and returns
(records, all_ok)."""

import numpy as np

from .data import encode_batch_pm1
from .grad import backward, finite_diff_model_gradient
from .linalg import exact_dominant_eigen, gram, power_dominant_eigen
from .margin import verify_denominator_inequality
from .model import forward_batch, init_mlp
from .objectives import (
    LOSS_KINDS,
    LayerPenalty,
    RegularizerSpec,
    sample_dropout_masks,
    total_objective,
)

GRAD_CHECK_TOL = 1e-4
POWER_REL_TOL = 1e-3
RAYLEIGH_REL_TOL = 1e-9

# central differences cannot resolve slopes below the rounding crumb of the
# objective, roughly eps*|E|/(2h); discrepancies under this floor are
# measurement noise, not gradient errors (e.g. hinge configurations where
# opposite-target violations cancel an analytic component to exactly zero)
FD_NOISE_FLOOR = 1e-10

# an all-ones start nearly orthogonal to the dominant eigenvector stalls
# the iteration; the fidelity suite keeps a modest guaranteed overlap
OVERLAP_FLOOR = 0.1
# the fidelity suite's largest second/first eigenvalue ratio
GAP_RATIO = 0.5
# rows of the seeded batch model_gradient_check differentiates on
MODEL_CHECK_BATCH = 4


def _fd_max_rel_err(analytic, numeric, objective_scale):
    noise = FD_NOISE_FLOOR * max(1.0, abs(objective_scale))
    worst = 0.0
    for a, b in zip(analytic, numeric):
        diff = np.abs(a - b)
        denom = np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, 1e-8)])
        rel = np.where(diff <= noise, 0.0, diff / denom)
        worst = max(worst, float(np.max(rel)))
    return worst


def random_gapped_psd(rng, n):
    """Random PSD matrix with second/first eigenvalue ratio at most
    GAP_RATIO and dominant eigenvector overlapping the all-ones direction
    by at least OVERLAP_FLOOR (cosine)."""
    ones = np.ones(n) / np.sqrt(n)
    while True:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        if q[:, 0] @ ones < 0:
            q[:, 0] = -q[:, 0]
        if q[:, 0] @ ones >= OVERLAP_FLOOR:
            break
    lam1 = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    rest = rng.uniform(0.0, GAP_RATIO * lam1, size=n - 1)
    vals = np.concatenate([[lam1], rest])
    a = (q * vals) @ q.T
    return np.tril(a) + np.tril(a, -1).T


def power_method_fidelity_suite(count=500, seed=0, max_side=32, p=9):
    """Estimate vs exact dominant eigenvalue on gapped random PSD matrices.

    Each record checks two things: the estimate lands within POWER_REL_TOL
    of the exact value, and it never exceeds the exact value by more than
    RAYLEIGH_REL_TOL relative (the Rayleigh quotient is a lower bound up to
    roundoff).
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        n = int(rng.integers(2, max_side + 1))
        m = random_gapped_psd(rng, n)
        est = power_dominant_eigen(m, p).lambda_dom
        exact = exact_dominant_eigen(m)
        rel_err = abs(est - exact) / exact
        within = rel_err <= POWER_REL_TOL
        never_above = est <= exact + RAYLEIGH_REL_TOL * (1.0 + exact)
        records.append(
            {
                "index": i,
                "side": n,
                "estimate": est,
                "exact": exact,
                "rel_err": rel_err,
                "within_tol": bool(within),
                "rayleigh_bound": bool(never_above),
                "ok": bool(within and never_above),
            }
        )
    return records, all(r["ok"] for r in records)


def quadratic_form_bound_suite(count=1000, seed=0, max_side=16):
    """x^T A x <= lambda_dom * x^T x for random PSD A and random x."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        n = int(rng.integers(1, max_side + 1))
        a = gram(rng.standard_normal((n, n)))
        x = rng.standard_normal(n) * float(np.exp(rng.uniform(-2, 2)))
        lhs = float(x @ (a @ x))
        lam = exact_dominant_eigen(a)
        rhs = lam * float(x @ x)
        ok = lhs <= rhs + 1e-9 * max(1.0, abs(rhs))
        records.append(
            {"index": i, "side": n, "lhs": lhs, "rhs": rhs, "ok": bool(ok)}
        )
    return records, all(r["ok"] for r in records)


def denominator_inequality_suite(count=500, seed=0, max_side=16):
    """Random (row, slope vector, weight matrix) triples through
    verify_denominator_inequality."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        r = int(rng.integers(1, max_side + 1))
        c = int(rng.integers(1, max_side + 1))
        w_row = rng.standard_normal(r)
        gamma = rng.uniform(-1.0, 1.0, size=r)
        w = rng.standard_normal((r, c))
        ok = verify_denominator_inequality(w_row, gamma, w)
        records.append({"index": i, "rows": r, "cols": c, "ok": bool(ok)})
    return records, all(r["ok"] for r in records)


_PENALTY_CYCLE = ("none", "eigen_decay", "l1", "l2", "mixed")


def _config_regularizer(rng, pattern, n_layers):
    entries = []
    for k in range(n_layers):
        kind = pattern
        if pattern == "mixed":
            kind = _PENALTY_CYCLE[int(rng.integers(0, 4))]
        if kind == "none":
            entries.append(LayerPenalty())
        else:
            c = float(rng.uniform(0.01, 0.5))
            p = int(rng.choice([3, 9]))
            entries.append(LayerPenalty(kind, c, p))
    return entries


def _hinge_clearance(model, X, Y):
    _, _, Yhat = forward_batch(model, X)
    return float(np.min(np.abs(1.0 - Y * Yhat)))


def gradient_check_suite(count=50, seed=0, h=1e-5, tol=GRAD_CHECK_TOL):
    """Analytic gradients vs central differences on random small models.

    Cycles through 1-3 hidden layers, sigmoid/tanh activations, every loss
    kind, and none/eigenvalue/l1/l2 penalties; every tenth case trains with
    dropout at a fixed mask. Per-component relative error
    uses max(|a|, |b|, 1e-8) in the denominator. Hinge configurations are
    resampled until every output sits at least 1e-3 away from the hinge
    kink, where the loss is not differentiable.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        n_hidden = 1 + i % 3
        activation = ("sigmoid", "tanh")[(i // 3) % 2]
        loss_kind = LOSS_KINDS[i % len(LOSS_KINDS)]
        pattern = _PENALTY_CYCLE[i % len(_PENALTY_CYCLE)]
        dims = [int(rng.integers(2, 6)) for _ in range(n_hidden + 2)]
        batch = int(rng.integers(3, 7))

        model = init_mlp(dims, activation, seed=int(rng.integers(0, 2**31)))
        reg = RegularizerSpec(
            layers=_config_regularizer(rng, pattern, n_hidden + 1),
            dropout=(0.0,) * n_hidden,
        )
        targets = rng.integers(0, dims[-1], size=batch)
        Y = encode_batch_pm1(targets, dims[-1])
        X = rng.standard_normal((batch, dims[0]))
        if loss_kind == "multiclass_hinge":
            for _ in range(100):
                if _hinge_clearance(model, X, Y) > 1e-3:
                    break
                X = rng.standard_normal((batch, dims[0]))

        masks = None
        if i % 10 == 9:
            reg = RegularizerSpec(reg.layers, dropout=(0.3,) * n_hidden)
            masks = sample_dropout_masks(
                reg.dropout, model.hidden_dims, batch, rng
            )

        analytic = backward(model, X, Y, loss_kind, reg, masks)
        numeric = finite_diff_model_gradient(model, X, Y, loss_kind, reg, h, masks)
        scale = total_objective(model, X, Y, loss_kind, reg, masks).total
        max_rel = _fd_max_rel_err(analytic.as_list(), numeric.as_list(), scale)
        records.append(
            {
                "index": i,
                "hidden_layers": n_hidden,
                "activation": activation,
                "loss": loss_kind,
                "penalties": pattern,
                "dropout": masks is not None,
                "max_rel_err": max_rel,
                "ok": bool(max_rel <= tol),
            }
        )
    return records, all(r["ok"] for r in records)


def model_gradient_check(model, seed=0):
    """Gradient check for one concrete model: compares backward() with the
    finite-difference oracle under each penalty kind on a seeded batch."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((MODEL_CHECK_BATCH, model.n_in))
    targets = rng.integers(0, model.n_out, size=MODEL_CHECK_BATCH)
    Y = encode_batch_pm1(targets, model.n_out)
    n_layers = len(model.layers)
    records = []
    for kind in ("none", "eigen_decay", "l1", "l2"):
        if kind == "none":
            entries = tuple(LayerPenalty() for _ in range(n_layers))
        else:
            entries = tuple(LayerPenalty(kind, 0.05) for _ in range(n_layers))
        reg = RegularizerSpec(entries, dropout=(0.0,) * len(model.hidden))
        analytic = backward(model, X, Y, "mse", reg)
        numeric = finite_diff_model_gradient(model, X, Y, "mse", reg)
        scale = total_objective(model, X, Y, "mse", reg).total
        max_rel = _fd_max_rel_err(analytic.as_list(), numeric.as_list(), scale)
        records.append(
            {"penalty": kind, "max_rel_err": max_rel, "ok": bool(max_rel <= GRAD_CHECK_TOL)}
        )
    return records, all(r["ok"] for r in records)
