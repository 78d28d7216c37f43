"""Dense matrix/vector plumbing, power-method eigenvalue estimation, and a
cyclic-Jacobi eigensolver kept as an exact, slow reference.

_power is the program's only power iteration: the penalty value reads its
estimate through power_dominant_eigen, and grad.eigen_decay_gradient
differentiates the same steps."""

import math

import numpy as np


SYMMETRY_RTOL = 1e-9
# the default number of power-method steps behind the soft lambda estimate
POWER_STEPS = 9
# Jacobi sweeps stop once the off-diagonal norm is below this share of the
# input's Frobenius norm
JACOBI_TOL = 1e-12
# and give up with RuntimeError after this many sweeps
JACOBI_MAX_SWEEPS = 60


NONFINITE_MATRIX = "matrix entries must be finite"


class DegenerateIterateError(RuntimeError):
    """Power iterate collapsed to the zero vector."""


def as_matrix(a, stacked=False):
    """Finite float array of shape (m, n), or (R, m, n) with stacked=True:
    a leading axis of R same-shape members."""
    m = np.asarray(a, dtype=float)
    ndim = 3 if stacked else 2
    if m.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(NONFINITE_MATRIX)
    return m


def as_vector(a, stacked=False):
    """Finite float array of shape (n,), or (R, n) with stacked=True."""
    v = np.asarray(a, dtype=float)
    ndim = 2 if stacked else 1
    if v.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def _dot(a, b):
    # (R, n) dot (R, n), row by row, with the bits of 1-D a @ b
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def gram(w):
    """W W^T of a float array W (m, n), or of each member of a stack
    (R, m, n) with the bits of the 2-D call. The caller has checked W.

    numpy forms a product with its own transpose symmetric to the last bit
    (tests/test_stacked_bits.py pins this), so no triangle is mirrored."""
    g = w @ w.swapaxes(-1, -2)
    # a Fortran-order or strided W gives -0.0 where its products underflow
    g += 0.0
    return g


def _symmetric(m):
    # per matrix of an (..., n, n) array; a non-finite matrix is not
    scale = abs(m).max(axis=(-2, -1), initial=0.0)
    tol = SYMMETRY_RTOL * np.maximum(scale, 1e-300)[..., None, None]
    return (abs(m - m.swapaxes(-1, -2)) <= tol).all(axis=(-2, -1))


DEGENERATE_START = (
    "power iterate hit the zero vector (all-ones start lies in the kernel)"
)
ITERATE_OVERFLOW = "power iterate overflowed"


def _power(ms, p):
    """(lam, failed, trail): the one power iteration, run on a stack ms
    (R, n, n) of symmetric matrices for p >= 1 steps from the all-ones
    vector. power_dominant_eigen returns its (lam, failed), and
    grad.eigen_decay_gradient walks its trail backwards.

    Step t multiplies, u_t = M v_(t-1), then divides by the largest entry,
    peak_t, and then by the 2-norm of the result, norm_t, so v_t is u_t over
    ||u_t|| = peak_t * norm_t. trail is (iterates, peaks, norms, mv, num,
    den): the p + 1 iterates v_0 .. v_p as (R, n, 1) columns, the p peaks
    and norms as (R, 1, 1) arrays, M v_p, and the Rayleigh quotient's
    numerator (M v_p)^T v_p and denominator v_p^T v_p, each (R, 1, 1).

    Columns give each member's GEMV, max-abs and sqrt-of-dot norm the bits
    of 1-D m @ v, max(abs(v)) and np.linalg.norm(v). A non-finite matrix, a
    zero peak and an overflow each leave lam not finite, so failures are
    told apart only then; numpy's warnings for them would just precede the
    typed error.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = np.ones(ms.shape[:-1] + (1,))
        iterates, peaks, norms = [v], [], []
        for _ in range(p):
            v = ms @ v
            # scale by the largest entry first so the squared sum in the
            # 2-norm cannot overflow for huge spectra
            peak = abs(v).max(axis=-2, keepdims=True)
            v = v / peak
            nrm = np.sqrt(v.swapaxes(-1, -2) @ v)
            v = v / nrm
            iterates.append(v)
            peaks.append(peak)
            norms.append(nrm)
        # the largest entry of v is at least 1/sqrt(n), so den > 0 unless
        # an earlier step failed
        den = v.swapaxes(-1, -2) @ v
        mv = ms @ v
        num = mv.swapaxes(-1, -2) @ v
        lam = (num / den)[:, 0, 0]
    failed = {}
    bad = ~np.isfinite(lam)
    if bad.any():
        # a zero peak makes every later iterate nan, and the first GEMV
        # carries any non-finite entry of m into lam
        zero = (np.concatenate(peaks, axis=-1) == 0.0).any(axis=-1)[:, 0]
        for r in np.flatnonzero(bad).tolist():
            if not np.isfinite(ms[r]).all():
                failed[r] = ValueError(NONFINITE_MATRIX)
            elif zero[r]:
                failed[r] = DegenerateIterateError(DEGENERATE_START)
            else:
                failed[r] = OverflowError(ITERATE_OVERFLOW)
        lam[bad] = math.nan
    return lam, failed, (iterates, peaks, norms, mv, num, den)


def power_dominant_eigen(ms, p):
    """(lam, failed): the dominant-eigenvalue estimate of each member of a
    stack ms (R, n, n) of symmetric matrices, which the program makes as
    grams or symmetrized matrices, and p >= 1 steps.

    Runs p multiplies starting from the all-ones vector and returns the
    Rayleigh quotient of the final iterate. Each step divides the iterate by
    its largest entry and then by its 2-norm; the quotient is invariant
    under that rescaling, which only keeps intermediates bounded (the raw
    iterate grows like lambda^p and overflows for large spectra).

    A start vector orthogonal to the dominant eigenspace makes the estimate
    converge to a lower eigenvalue; the Rayleigh quotient still never
    exceeds the true dominant eigenvalue.

    lam is an (R,) array. A member that fails is not raised for: failed
    maps it to its error, and its lam is nan. A non-finite matrix gives
    ValueError, an iterate that hits the zero vector
    DegenerateIterateError, and one that overflows OverflowError.
    """
    lam, failed, _ = _power(ms, p)
    return lam, failed


def jacobi_eigenvalues(m):
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm drops below JACOBI_TOL
    times the Frobenius norm of the input. O(n^3) per sweep with quadratic
    convergence; meant for small reference computations, not bulk work.

    The rotations run on Python floats in row lists. Each product and sum
    rounds to double as numpy's elementwise ufuncs do, so the results have
    the bits of rotating numpy columns, at a fraction of the per-pivot cost
    for the small sides the verification suites draw.
    """
    a = as_matrix(m)
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not _symmetric(a):
        raise ValueError("jacobi_eigenvalues needs a symmetric matrix")
    if n == 1:
        return np.array([a[0, 0]])
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(n)
    # elements below this cannot push the off-norm above JACOBI_TOL*scale
    skip = JACOBI_TOL * scale / (10.0 * n)
    rows = a.tolist()
    # every pivot (k, l) in cyclic order, with its two rows
    plan = [(k, l, rows[k], rows[l]) for k in range(n - 1) for l in range(k + 1, n)]
    for _ in range(JACOBI_MAX_SWEEPS):
        a = np.array(rows)
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= JACOBI_TOL * scale:
            return np.diag(a).copy()
        for k, l, row_k, row_l in plan:
            akl = row_k[l]
            if abs(akl) <= skip:
                continue
            akk = row_k[k]
            all_ = row_l[l]
            diff = all_ - akk
            if abs(akl) < abs(diff) * 1e-36:
                t = akl / diff
            else:
                phi = diff / (2.0 * akl)
                t = 1.0 / (abs(phi) + math.sqrt(phi * phi + 1.0))
                if phi < 0.0:
                    t = -t
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            # rotate columns k and l, reading them as stored (a near-
            # symmetric input keeps its bits), and mirror them into rows
            # k and l. Rows k and l themselves write only inside the 2x2
            # pivot block, which the closed-form update then overwrites.
            for i, row_i in enumerate(rows):
                x = row_i[k]
                y = row_i[l]
                row_i[k] = row_k[i] = c * x - s * y
                row_i[l] = row_l[i] = s * x + c * y
            row_k[k] = akk - t * akl
            row_l[l] = all_ + t * akl
            row_k[l] = 0.0
            row_l[k] = 0.0
    raise RuntimeError(f"jacobi rotations did not converge in {JACOBI_MAX_SWEEPS} sweeps")


def exact_dominant_eigen(m):
    """Largest eigenvalue via the Jacobi solver, at any side.

    Reference path for verification. Intended for positive-semidefinite
    inputs, where the largest eigenvalue is the dominant one.
    jacobi_eigenvalues checks the input.
    """
    return float(np.max(jacobi_eigenvalues(m)))
