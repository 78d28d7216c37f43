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
        assert est.iterations_used == 9

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
