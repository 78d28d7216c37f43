"""Dense matrix/vector plumbing, power-method eigenvalue estimation, and a
cyclic-Jacobi eigensolver kept as an exact, slow reference."""

from dataclasses import dataclass
import math

import numpy as np


MAX_JACOBI_SIDE = 64
SYMMETRY_RTOL = 1e-9


class DegenerateIterateError(RuntimeError):
    """Power iterate collapsed to the zero vector."""


def as_matrix(a):
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(a):
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def gram(w):
    """W W^T, with the upper triangle mirrored from the lower so the result
    is symmetric to the last bit."""
    w = as_matrix(w)
    g = w @ w.T
    lower = np.tril(g)
    return lower + np.tril(g, -1).T


def is_symmetric(m, rtol=SYMMETRY_RTOL):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    return bool(np.all(np.abs(m - m.T) <= rtol * max(scale, 1e-300)))


@dataclass
class EigenEstimate:
    lambda_dom: float
    v_dom: np.ndarray
    iterations_used: int


def power_dominant_eigen(m, p=9, normalize_each_step=True):
    """Dominant-eigenvalue estimate of a symmetric matrix.

    Runs ``p`` multiplies starting from the all-ones vector and returns the
    Rayleigh quotient of the final iterate. The quotient is invariant under
    rescaling of the iterate, so ``normalize_each_step`` changes nothing in
    exact arithmetic; it only keeps intermediates bounded (the raw iterate
    grows like lambda^p and overflows for large spectra).

    A start vector orthogonal to the dominant eigenspace makes the estimate
    converge to a lower eigenvalue; the Rayleigh quotient still never
    exceeds the true dominant eigenvalue.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if p < 1:
        raise ValueError(f"iteration count must be >= 1, got {p}")
    if not is_symmetric(m):
        raise ValueError("power_dominant_eigen needs a symmetric matrix")

    # overflow is detected on the results below and raised as a typed
    # error; numpy's own warning would just precede it
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.ones(m.shape[0])
        for _ in range(p):
            v = m @ v
            if normalize_each_step:
                # scale by the largest entry first so the squared sum in
                # the 2-norm cannot overflow for huge spectra
                peak = float(np.max(np.abs(v)))
                if peak == 0.0:
                    raise DegenerateIterateError(
                        "power iterate hit the zero vector (all-ones start "
                        "lies in the kernel)"
                    )
                v = v / peak
                v = v / float(np.linalg.norm(v))
        den = float(v @ v)
        if den == 0.0:
            raise DegenerateIterateError(
                "power iterate hit the zero vector (all-ones start lies in "
                "the kernel)"
            )
        num = float((m @ v) @ v)
    if not (math.isfinite(num) and math.isfinite(den)):
        raise OverflowError(
            "power iterate overflowed; rerun with normalize_each_step=True"
        )
    return EigenEstimate(num / den, v, p)


def jacobi_eigenvalues(m, tol=1e-12, max_sweeps=60):
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm drops below ``tol`` times
    the Frobenius norm of the input. O(n^3) per sweep with quadratic
    convergence; meant for small reference computations, not bulk work.
    """
    a = as_matrix(m).copy()
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not is_symmetric(a):
        raise ValueError("jacobi_eigenvalues needs a symmetric matrix")
    if n == 1:
        return np.array([a[0, 0]])
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(n)
    # elements below this cannot push the off-norm above tol*scale
    skip = tol * scale / (10.0 * n)
    for _ in range(max_sweeps):
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= tol * scale:
            return np.diag(a).copy()
        for k in range(n - 1):
            for l in range(k + 1, n):
                akl = a[k, l]
                if abs(akl) <= skip:
                    continue
                diff = a[l, l] - a[k, k]
                if abs(akl) < abs(diff) * 1e-36:
                    t = akl / diff
                else:
                    phi = diff / (2.0 * akl)
                    t = 1.0 / (abs(phi) + math.sqrt(phi * phi + 1.0))
                    if phi < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                akk = a[k, k]
                all_ = a[l, l]
                col_k = c * a[:, k] - s * a[:, l]
                col_l = s * a[:, k] + c * a[:, l]
                a[:, k] = col_k
                a[:, l] = col_l
                # the rotated matrix stays symmetric: rows mirror columns,
                # and the 2x2 pivot block has the closed-form update
                a[k, :] = col_k
                a[l, :] = col_l
                a[k, k] = akk - t * akl
                a[l, l] = all_ + t * akl
                a[k, l] = 0.0
                a[l, k] = 0.0
    raise RuntimeError(f"jacobi rotations did not converge in {max_sweeps} sweeps")


def exact_dominant_eigen(m):
    """Largest eigenvalue via the Jacobi solver.

    Reference path for verification; input side capped at MAX_JACOBI_SIDE.
    Intended for positive-semidefinite inputs, where the largest eigenvalue
    is the dominant one.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if m.shape[0] > MAX_JACOBI_SIDE:
        raise ValueError(
            f"side {m.shape[0]} exceeds the reference-solver cap of "
            f"{MAX_JACOBI_SIDE}"
        )
    if not is_symmetric(m):
        raise ValueError("exact_dominant_eigen needs a symmetric matrix")
    return float(np.max(jacobi_eigenvalues(m)))
