"""Dense matrix/vector plumbing, power-method eigenvalue estimation, and a
cyclic-Jacobi eigensolver kept as an exact, slow reference."""

from dataclasses import dataclass, field
import functools
import math

import numpy as np


SYMMETRY_RTOL = 1e-9
# Jacobi sweeps stop once the off-diagonal norm is below this share of the
# input's Frobenius norm
JACOBI_TOL = 1e-12


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


def gram(w, *, check=True):
    """W W^T, with the upper triangle mirrored from the lower so the result
    is symmetric to the last bit. A stack (R, m, n) gives one gram per
    member, each with the bits of the 2-D call. check=False skips the
    shape and finiteness checks, for callers that have made them."""
    if check:
        w = np.asarray(w, dtype=float)
        w = as_matrix(w, stacked=w.ndim == 3)
    g = w @ w.swapaxes(-1, -2)
    np.copyto(g, g.swapaxes(-1, -2), where=_strict_upper(g.shape[-1]))
    # adding 0.0 turns -0.0 into +0.0, as summing the two triangles did
    g += 0.0
    return g


@functools.cache
def _strict_upper(n):
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def _symmetric(m):
    # per matrix of an (..., n, n) array; a non-finite matrix is not
    scale = abs(m).max(axis=(-2, -1), initial=0.0)
    tol = SYMMETRY_RTOL * np.maximum(scale, 1e-300)[..., None, None]
    return (abs(m - m.swapaxes(-1, -2)) <= tol).all(axis=(-2, -1))


@dataclass
class EigenEstimate:
    lambda_dom: float  # an (R,) array for a stack, nan where a member failed
    # stack only: member -> its error, which a 2-D call raises instead
    failed: dict = field(default_factory=dict)


DEGENERATE_START = (
    "power iterate hit the zero vector (all-ones start lies in the kernel)"
)
NOT_SYMMETRIC = "power_dominant_eigen needs a symmetric matrix"
ITERATE_OVERFLOW = "power iterate overflowed"


def power_dominant_eigen(m, p=9):
    """Dominant-eigenvalue estimate of a symmetric matrix.

    Runs ``p`` multiplies starting from the all-ones vector and returns the
    Rayleigh quotient of the final iterate. Each step divides the iterate by
    its largest entry and then by its 2-norm; the quotient is invariant
    under that rescaling, which only keeps intermediates bounded (the raw
    iterate grows like lambda^p and overflows for large spectra).

    A start vector orthogonal to the dominant eigenspace makes the estimate
    converge to a lower eigenvalue; the Rayleigh quotient still never
    exceeds the true dominant eigenvalue.

    A stack (R, n, n) gives one estimate per member: lambda_dom is an (R,)
    array, and a member that fails is not raised for; failed maps it to its
    error, and its lambda_dom is nan. A 2-D matrix is the stack of one and
    raises its error.
    """
    m = np.asarray(m, dtype=float)
    stacked = m.ndim == 3
    if m.ndim not in (2, 3):
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if p < 1:
        raise ValueError(f"iteration count must be >= 1, got {p}")
    if not stacked:
        m = m[None]

    # iterates are (R, n, 1) columns: the GEMV, the max-abs and the
    # sqrt-of-dot norm of each member then have the bits of 1-D m @ v,
    # max(abs(v)) and np.linalg.norm(v). Failures are told apart after the
    # loop; numpy's warnings for them would just precede the typed error.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = np.ones(m.shape[:-1] + (1,))
        peaks = []
        for _ in range(p):
            v = m @ v
            # scale by the largest entry first so the squared sum in the
            # 2-norm cannot overflow for huge spectra
            peak = abs(v).max(axis=-2, keepdims=True)
            peaks.append(peak)
            v = v / peak
            v = v / np.sqrt(v.swapaxes(-1, -2) @ v)
        # the largest entry of v is at least 1/sqrt(n), so den > 0 unless
        # an earlier step failed
        den = v.swapaxes(-1, -2) @ v
        num = (m @ v).swapaxes(-1, -2) @ v
        lam = (num / den)[:, 0, 0]
    # a zero peak makes every later iterate nan, so it is told apart here
    zero = (np.concatenate(peaks, axis=-1) == 0.0).any(axis=-1)[:, 0]
    overflow = ~(np.isfinite(num) & np.isfinite(den))[:, 0, 0]
    finite = np.isfinite(m).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite member
        symmetric = _symmetric(m)
    failed = {}
    for r in np.flatnonzero(~finite | ~symmetric | zero | overflow).tolist():
        if not finite[r]:
            failed[r] = ValueError(NONFINITE_MATRIX)
        elif not symmetric[r]:
            failed[r] = ValueError(NOT_SYMMETRIC)
        elif zero[r]:
            failed[r] = DegenerateIterateError(DEGENERATE_START)
        else:
            failed[r] = OverflowError(ITERATE_OVERFLOW)
    if not stacked:
        if failed:
            raise failed[0]
        return EigenEstimate(float(lam[0]))
    if failed:
        lam[list(failed)] = math.nan
    return EigenEstimate(lam, failed)


def jacobi_eigenvalues(m, max_sweeps=60):
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
    for _ in range(max_sweeps):
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
    raise RuntimeError(f"jacobi rotations did not converge in {max_sweeps} sweeps")


def exact_dominant_eigen(m):
    """Largest eigenvalue via the Jacobi solver, at any side.

    Reference path for verification. Intended for positive-semidefinite
    inputs, where the largest eigenvalue is the dominant one.
    jacobi_eigenvalues checks the input.
    """
    return float(np.max(jacobi_eigenvalues(m)))
