from fractions import Fraction
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import linear_layer

from eigendecay.linalg import (
    DegenerateIterateError,
    exact_dominant_eigen,
    gram,
    is_symmetric,
    jacobi_eigenvalues,
    power_dominant_eigen,
)
from eigendecay.model import MlpModel, forward_batch


def _product(a, b):
    """a @ b as the forward pass computes it: rows of b^T through a linear
    layer with weights a and an identity read-out."""
    a = np.asarray(a, dtype=float)
    model = MlpModel([linear_layer(a)], linear_layer(np.eye(a.shape[0])))
    _, _, out = forward_batch(model, np.asarray(b, dtype=float).T)
    return out.T


class TestMatmul:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(_product(np.eye(2), b), b)

    def test_annihilation(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[0.0], [5.0]])
        np.testing.assert_array_equal(_product(a, b), [[0.0], [0.0]])

    def test_hand_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        # 1*5+2*6 = 17, 3*5+4*6 = 39
        np.testing.assert_array_equal(_product(a, b), [[17.0], [39.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _product(np.ones((2, 3)), np.ones((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            _product(np.array([[np.nan]]), np.ones((1, 1)))


class TestGram:
    def test_hand_value(self):
        w = np.array([[3.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(gram(w), [[9.0, 0.0], [0.0, 0.0]])

    def test_identity(self):
        np.testing.assert_array_equal(gram(np.eye(3)), np.eye(3))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_exactly_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        g = gram(w)
        assert np.array_equal(g, g.T)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_psd(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        g = gram(w)
        scale = max(1.0, float(np.max(np.abs(g))))
        assert np.min(jacobi_eigenvalues(g)) >= -1e-10 * scale


def _unnormalized_power(m, p):
    """The power iteration from the all-ones vector without per-step
    rescaling: the raw iterate m^p 1 grows like lambda^p. Returns the
    Rayleigh quotient and the iterate; OverflowError once either leaves
    float range."""
    v = np.ones(m.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(p):
            v = m @ v
        num, den = float((m @ v) @ v), float(v @ v)
    if not (math.isfinite(num) and math.isfinite(den)):
        raise OverflowError("unnormalized iterate overflowed")
    return num / den, v


class TestPowerDominantEigen:
    def test_identity_any_p(self):
        est = power_dominant_eigen(np.eye(3), 9)
        assert est.lambda_dom == pytest.approx(1.0, abs=0)
        assert est.failed == {}

    def test_exact_eigenvector_start(self):
        # (1, 1) is the dominant eigenvector of [[2,1],[1,2]], eigenvalue 3
        est = power_dominant_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]), 9)
        assert est.lambda_dom == pytest.approx(3.0, rel=1e-15)

    def test_diag_4_1_0_rational_oracle(self):
        # unnormalized iterate from ones: v = (4^9, 1, 0); quotient by
        # exact rational arithmetic
        m = np.diag([4.0, 1.0, 0.0])
        lam, v = _unnormalized_power(m, 9)
        np.testing.assert_array_equal(v, [4.0**9, 1.0, 0.0])
        expected = float((Fraction(4) ** 19 + 1) / (Fraction(4) ** 18 + 1))
        assert lam == pytest.approx(expected, rel=1e-15)
        est = power_dominant_eigen(m, 9)
        assert est.lambda_dom == pytest.approx(expected, rel=1e-15)
        assert abs(est.lambda_dom - 4.0) / 4.0 < 1e-7

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegenerateIterateError):
            power_dominant_eigen(np.zeros((3, 3)), 9)

    def test_kernel_start_degenerate(self):
        # ones is in the kernel of [[1,-1],[-1,1]]
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(DegenerateIterateError):
            power_dominant_eigen(m, 9)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            power_dominant_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]), 9)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            power_dominant_eigen(np.eye(2), 0)

    def test_unnormalized_overflow_raises(self):
        # lambda^p exceeds float range; the normalized iteration handles it
        m = np.diag([1e40, 1.0])
        with pytest.raises(OverflowError):
            _unnormalized_power(m, 9)
        est = power_dominant_eigen(m, 9)
        assert est.lambda_dom == pytest.approx(1e40, rel=1e-9)

    def test_overflow_of_one_product_raises(self):
        # entries near the float maximum: m @ ones overflows in the first step
        with pytest.raises(OverflowError, match="^power iterate overflowed$"):
            power_dominant_eigen(np.full((2, 2), 1e308), 9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_rayleigh_never_exceeds_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        m = gram(rng.standard_normal((n, n)))
        p = int(rng.integers(1, 12))
        est = power_dominant_eigen(m, p)
        exact = exact_dominant_eigen(m)
        assert est.lambda_dom <= exact + 1e-9 * (1.0 + exact)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_normalize_toggle_matches(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        m = gram(rng.standard_normal((n, n)))
        a = power_dominant_eigen(m, 9).lambda_dom
        b, _ = _unnormalized_power(m, 9)
        assert abs(a - b) <= 1e-9 * max(abs(a), 1.0)

    def test_convergence_with_spectral_gap(self):
        from eigendecay.verify import random_gapped_psd

        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 17))
            m = random_gapped_psd(rng, n)
            est = power_dominant_eigen(m, 9).lambda_dom
            exact = exact_dominant_eigen(m)
            assert abs(est - exact) / exact <= 1e-3


class TestExactDominantEigen:
    def test_diagonal(self):
        assert exact_dominant_eigen(np.diag([4.0, 1.0, 0.0])) == pytest.approx(4.0)

    def test_2x2_characteristic_roots(self):
        # det([[2-x,1],[1,2-x]]) = x^2-4x+3, roots {3, 1}
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert exact_dominant_eigen(m) == pytest.approx(3.0, rel=1e-12)

    def test_gram_hand_value(self):
        assert exact_dominant_eigen(gram([[3.0, 0.0], [0.0, 0.0]])) == pytest.approx(9.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            exact_dominant_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_large_side(self):
        with pytest.raises(ValueError):
            exact_dominant_eigen(np.eye(65))

    @pytest.mark.parametrize("m, message", [
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "matrix entries must be finite"),
        (np.ones((2, 3)), "matrix must be square, got shape (2, 3)"),
        (np.array([[1.0, 2.0], [0.0, 1.0]]), "jacobi_eigenvalues needs a symmetric matrix"),
        (np.eye(65), "side 65 exceeds the reference-solver cap of 64"),
    ], ids=["non_finite", "non_square", "asymmetric", "wide"])
    def test_errors_checked_once_with_their_texts(self, m, message):
        with pytest.raises(ValueError) as info:
            exact_dominant_eigen(m)
        assert str(info.value) == message

    def test_matches_numpy_on_random_symmetric(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 20))
            b = rng.standard_normal((n, n))
            m = (b + b.T) / 2.0
            ref = float(np.max(np.linalg.eigvalsh(m)))
            assert exact_dominant_eigen(m) == pytest.approx(ref, rel=1e-10, abs=1e-10)


class TestQuadraticFormBound:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_form_never_exceeds_dominant_scaled_norm(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 17))
        a = gram(rng.standard_normal((n, n)))
        x = rng.standard_normal(n)
        lam = exact_dominant_eigen(a)
        lhs = float(x @ (a @ x))
        rhs = lam * float(x @ x)
        assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


def _numpy_jacobi(m, tol=1e-12, max_sweeps=60):
    """Frozen copy of the cyclic-Jacobi kernel that rotated numpy columns
    (about ten numpy calls per pivot), kept as the bitwise reference for
    jacobi_eigenvalues. Validation is left to the caller."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0]])
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(n)
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
                a[k, :] = col_k
                a[l, :] = col_l
                a[k, k] = akk - t * akl
                a[l, l] = all_ + t * akl
                a[k, l] = 0.0
                a[l, k] = 0.0
    raise RuntimeError(f"jacobi rotations did not converge in {max_sweeps} sweeps")


def _assert_same_jacobi_bits(m):
    assert is_symmetric(m)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        got = jacobi_eigenvalues(m)
        want = _numpy_jacobi(m)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestJacobiBits:
    """jacobi_eigenvalues keeps the bits of the numpy-column kernel: the
    suite records (criteria 1, 2 and 5) and the theorem1 reports carry its
    values."""

    @pytest.mark.parametrize("side", range(1, 65))
    def test_random_grams_at_every_side(self, side):
        rng = np.random.default_rng(side)
        w = rng.standard_normal((side, int(rng.integers(1, side + 2))))
        _assert_same_jacobi_bits(gram(w * rng.uniform(0.1, 3.0, w.shape)))

    @given(st.integers(0, 10_000), st.integers(2, 12), st.floats(1e-16, 4e-10))
    @settings(max_examples=60, deadline=None)
    def test_near_symmetric_inputs(self, seed, side, asym):
        # is_symmetric admits 1e-9 relative asymmetry; the rotations must
        # read the same triangle the column kernel read
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((side, side))
        m = b + b.T
        m = m + asym * float(np.abs(m).max()) * rng.uniform(-1.0, 1.0, (side, side))
        _assert_same_jacobi_bits(m)

    @pytest.mark.parametrize("name", [
        "signed_zeros", "negative_zero_offdiagonal", "all_negative_zero",
        "rank_1", "diagonal", "zero", "one_by_one", "large", "small", "huge", "tiny",
        "subnormal",
    ])
    def test_edge_cases(self, name):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((5, 5))
        sym = b + b.T
        u = rng.standard_normal(6)
        m = {
            "signed_zeros": np.array([[-0.0, 1.0], [1.0, -0.0]]),
            "negative_zero_offdiagonal": np.array(
                [[2.0, -0.0, 1.0], [-0.0, 3.0, 0.0], [1.0, 0.0, -0.0]]),
            "all_negative_zero": np.full((3, 3), -0.0),
            "rank_1": np.outer(u, u),
            "diagonal": np.diag([3.0, -1.0, 2.0, 0.0]),
            "zero": np.zeros((4, 4)),
            "one_by_one": np.array([[-2.5]]),
            "large": sym * 1e150,
            "small": sym * 1e-150,
            "huge": sym * 1e300,
            "tiny": sym * 1e-300,
            "subnormal": sym * 1e-310,
        }[name]
        _assert_same_jacobi_bits(m)

    def test_same_error_when_sweeps_run_out(self):
        m = gram(np.random.default_rng(3).standard_normal((6, 6)))
        with pytest.raises(RuntimeError) as want:
            _numpy_jacobi(m, max_sweeps=1)
        with pytest.raises(RuntimeError) as got:
            jacobi_eigenvalues(m, max_sweeps=1)
        assert str(got.value) == str(want.value)
        _assert_same_jacobi_bits(m)
