"""numpy over a leading member axis gives each slice exactly the bits of the
2-D call. The stacked SGD loop (train._sgd_stack) rests on this: a numpy or
BLAS upgrade that breaks it fails here, before any output changes."""

import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from conftest import reference_deriv, reference_sigmoid

from eigendecay import train
from eigendecay.data import Dataset, gen_two_gaussians
from eigendecay.grad import (
    DEGENERATE_ITERATE,
    EIGEN_GRAD_FLOOR,
    NORM_OVERFLOW,
    backward,
    eigen_decay_gradient,
)
from eigendecay.linalg import (
    ITERATE_OVERFLOW,
    NONFINITE_MATRIX,
    DegenerateIterateError,
    as_matrix,
    gram,
    power_dominant_eigen,
)
from eigendecay.model import (
    Activation,
    DenseLayer,
    MlpModel,
    _sigmoid,
    _with_params,
    forward_batch,
    init_mlp,
    model_params,
)
from eigendecay.objectives import (
    LOSS_KINDS,
    LayerPenalty,
    RegularizerSpec,
    _penalized,
    loss_batch,
    loss_gradient_batch,
    sample_dropout_masks,
    total_objective,
)
from eigendecay.train import DivergenceError, TrainConfig, sgd_train

# (layer sizes, batch): the gauss_grid net and the digits_epoch net
SHAPES = [((2, 8, 2), 16), ((784, 128, 10), 128)]
STACKS = [1, 3]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_bitwise(stacked, slices):
    assert stacked.shape == (len(slices),) + slices[0].shape
    for got, want in zip(stacked, slices):
        np.testing.assert_array_equal(_bits(got), _bits(want))


def _stack(shape, R, rng):
    # a sign mix and a spread of magnitudes, so rounding has work to do
    return rng.standard_normal((R,) + shape) * rng.uniform(0.1, 3.0, (R,) + shape)


@pytest.mark.parametrize("R", STACKS)
@pytest.mark.parametrize("sizes, B", SHAPES)
class TestPrimitives:
    def test_forward_gemm_with_transposed_weights(self, sizes, B, R):
        rng = np.random.default_rng(1)
        for d, h in zip(sizes[:-1], sizes[1:]):
            Y, W = _stack((B, d), R, rng), _stack((h, d), R, rng)
            assert_bitwise(Y @ np.swapaxes(W, -1, -2), [Y[r] @ W[r].T for r in range(R)])

    def test_weight_gradient_gt_y(self, sizes, B, R):
        rng = np.random.default_rng(2)
        for d, h in zip(sizes[:-1], sizes[1:]):
            G, Y = _stack((B, h), R, rng), _stack((B, d), R, rng)
            assert_bitwise(np.swapaxes(G, -1, -2) @ Y, [G[r].T @ Y[r] for r in range(R)])

    def test_backprop_g_w(self, sizes, B, R):
        rng = np.random.default_rng(3)
        for d, h in zip(sizes[:-1], sizes[1:]):
            G, W = _stack((B, h), R, rng), _stack((h, d), R, rng)
            assert_bitwise(G @ W, [G[r] @ W[r] for r in range(R)])

    def test_w_wt(self, sizes, B, R):
        rng = np.random.default_rng(4)
        for d, h in zip(sizes[:-1], sizes[1:]):
            W = _stack((h, d), R, rng)
            assert_bitwise(W @ np.swapaxes(W, -1, -2), [W[r] @ W[r].T for r in range(R)])

    def test_gemv(self, sizes, B, R):
        rng = np.random.default_rng(5)
        for h in sizes[1:]:
            M, v = _stack((h, h), R, rng), _stack((h,), R, rng)
            assert_bitwise((M @ v[..., None])[..., 0], [M[r] @ v[r] for r in range(R)])

    def test_shared_w_gemv_over_stacked_columns(self, sizes, B, R):
        # one W broadcast over S stacked columns, as margin's bisection and
        # forward pass it, at the layer shapes, their transposes and every
        # square width up to 64
        rng = np.random.default_rng(12 + R)
        shapes = [(h, d) for d, h in zip(sizes[:-1], sizes[1:])]
        shapes += [(d, h) for h, d in shapes] + [(w, w) for w in range(1, 65)]
        for out, d in shapes:
            W = _stack((out, d), 1, rng)[0]
            for S in (1, 3, 5, 750):
                Y = _stack((d,), S, rng)
                stacked = (W @ Y[:, :, None])[:, :, 0]
                alone = np.stack([W @ Y[s] for s in range(S)])
                np.testing.assert_array_equal(_bits(stacked), _bits(alone))

    # margin's per-point pass stacks up to one theorem1 call's surface
    # points, about 1,050 at 2-8-2, and 83 at a time at 784-128-10
    SURFACE_STACKS = (1, 3, 5, 83, 1050)

    def test_gradient_row_times_shared_w(self, sizes, B, R):
        # input_gradient: each row of G times one W, as a vector-matrix
        # product, at the hidden and output layer shapes
        rng = np.random.default_rng(14 + R)
        for d, h in zip(sizes[:-1], sizes[1:]):
            W = _stack((h, d), 1, rng)[0]
            for S in self.SURFACE_STACKS:
                G = _stack((h,), S, rng)
                stacked = (G[:, None, :] @ W)[:, 0, :]
                assert_bitwise(stacked, [G[s] @ W for s in range(S)])

    def test_dot_over_surface_point_stacks(self, sizes, B, R):
        # per_point_bound: one dot and one norm per row
        rng = np.random.default_rng(18 + R)
        for n in sizes:
            for S in self.SURFACE_STACKS:
                a, b = _stack((n,), S, rng), _stack((n,), S, rng)
                dots = (a[:, None, :] @ b[:, :, None])[:, 0, 0]
                norms = np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])
                assert_bitwise(dots[:, None], [np.array([a[s] @ b[s]]) for s in range(S)])
                assert_bitwise(norms[:, None],
                               [np.array([np.linalg.norm(a[s])]) for s in range(S)])

    def test_dot(self, sizes, B, R):
        rng = np.random.default_rng(6)
        for n in sizes:
            a, b = _stack((n,), R, rng), _stack((n,), R, rng)
            stacked = (a[:, None, :] @ b[:, :, None])[:, 0, 0]
            assert_bitwise(stacked[:, None], [np.array([a[r] @ b[r]]) for r in range(R)])

    def test_norm_is_sqrt_of_dot(self, sizes, B, R):
        rng = np.random.default_rng(7)
        for n in sizes:
            v = _stack((n,), R, rng)
            stacked = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
            assert_bitwise(stacked[:, None],
                           [np.array([np.linalg.norm(v[r])]) for r in range(R)])

    def test_outer_is_broadcast_product(self, sizes, B, R):
        rng = np.random.default_rng(8)
        for n in sizes[1:]:
            a, b = _stack((n,), R, rng), _stack((n,), R, rng)
            assert_bitwise(a[:, :, None] * b[:, None, :],
                           [np.outer(a[r], b[r]) for r in range(R)])

    def test_bias_sums_over_the_batch_axis(self, sizes, B, R):
        rng = np.random.default_rng(9)
        for h in sizes[1:]:
            G = _stack((B, h), R, rng)
            assert_bitwise(G.sum(axis=1), [G[r].sum(axis=0) for r in range(R)])

    def test_gram_mirror(self, sizes, B, R):
        rng = np.random.default_rng(10)
        for d, h in zip(sizes[:-1], sizes[1:]):
            W = _stack((h, d), R, rng)
            W[:, 0] = 0.0
            W[:, 0, 0] = -0.0  # a -0.0 on the diagonal becomes +0.0 either way
            want = []
            for r in range(R):
                g = W[r] @ W[r].T
                want.append(np.tril(g) + np.tril(g, -1).T)
            g = W @ np.swapaxes(W, -1, -2)
            mirrored = np.where(np.tri(h, dtype=bool), g, np.swapaxes(g, -1, -2)) + 0.0
            assert_bitwise(mirrored, want)
            assert_bitwise(gram(W), want)


@pytest.mark.parametrize("R", STACKS)
@pytest.mark.parametrize("sizes, B", SHAPES)
def test_eigen_decay_gradient_stack_matches_each_member(sizes, B, R):
    rng = np.random.default_rng(11)
    for d, h in zip(sizes[:-1], sizes[1:]):
        W = _stack((h, d), R, rng)
        C = rng.uniform(0.001, 0.1, R)
        stacked, failed = eigen_decay_gradient(W, C, 9)
        assert failed == {}
        assert_bitwise(stacked, [eigen_decay_gradient(W[r], C[r], 9) for r in range(R)])


def test_eigen_decay_gradient_stack_zeroes_dead_members():
    rng = np.random.default_rng(12)
    W = _stack((4, 3), 4, rng)
    W[1] = 0.0
    W[3] *= 1e-9  # lambda ~ 1e-18, below the gradient floor
    C = np.array([0.5, 0.5, 0.0, 0.5])
    with pytest.warns(RuntimeWarning, match="below"):
        stacked, failed = eigen_decay_gradient(W, C)
    assert failed == {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert_bitwise(stacked, [eigen_decay_gradient(W[r], C[r]) for r in range(4)])
    assert not np.any(stacked[[1, 2, 3]])


def test_degenerate_members_are_marked_and_zeroed():
    rng = np.random.default_rng(13)
    W = _stack((2, 2), 5, rng)
    for r in (1, 3):
        W[r, 1] = -W[r, 0]  # W W^T maps the all-ones start to zero
    W[4, 0, 1] = np.nan
    grad, failed = eigen_decay_gradient(W, 0.5)
    assert sorted(failed) == [1, 3, 4]
    for r in (1, 3):
        assert isinstance(failed[r], DegenerateIterateError)
        assert "zero vector" in str(failed[r])
    assert type(failed[4]) is ValueError
    assert str(failed[4]) == "matrix entries must be finite"
    assert not np.any(grad[[1, 3, 4]])
    assert_bitwise(grad[[0, 2]], [eigen_decay_gradient(W[r], 0.5) for r in (0, 2)])
    # a stack records each member's error; a 2-D call raises it
    grad, failed = eigen_decay_gradient(W[:4], 0.5)
    assert sorted(failed) == [1, 3] and not np.any(grad[[1, 3]])
    with pytest.raises(DegenerateIterateError, match="zero vector"):
        eigen_decay_gradient(W[1], 0.5)
    with pytest.raises(ValueError, match="must be finite"):
        eigen_decay_gradient(W[4], 0.5)
    grad, failed = eigen_decay_gradient(W[1:2], 0.5)
    assert list(failed) == [0] and not np.any(grad)


@pytest.mark.parametrize("R", STACKS)
@pytest.mark.parametrize("sizes, B", SHAPES)
def test_backward_stack_matches_each_member(sizes, B, R):
    rng = np.random.default_rng(14)
    models = [init_mlp(list(sizes), "tanh", seed=int(s)) for s in rng.integers(0, 99, R)]
    params = [np.stack(p) for p in zip(*(model_params(m) for m in models))]
    act = Activation("tanh")
    stack = MlpModel([DenseLayer(params[0], params[1], act)],
                     DenseLayer(params[2], params[3], Activation("linear")))
    X = rng.uniform(0.0, 1.0, (R, B, sizes[0]))
    Y = np.where(rng.random((R, B, sizes[-1])) < 0.5, -1.0, 1.0)
    masks = [np.where(rng.random((R, B, sizes[1])) < 0.2, 0.0, 1.25)]
    penalties = [LayerPenalty("eigen_decay", 0.01), LayerPenalty("l1", 0.001),
                 LayerPenalty("l2", 0.002), LayerPenalty()]
    regs = [RegularizerSpec((penalties[r % 4], penalties[(r + 1) % 4]), (0.2,))
            for r in range(R)]
    got = backward(stack, X, Y, "categorical_cross_entropy", regs, masks)
    assert got.failed == {}
    want = [backward(models[r], X[r], Y[r], "categorical_cross_entropy", regs[r],
                     [masks[0][r]]) for r in range(R)]
    for k, stacked in enumerate(got.as_list()):
        assert_bitwise(stacked, [w.as_list()[k] for w in want])


def test_backward_stack_reports_failed_members():
    rng = np.random.default_rng(15)
    W0 = _stack((2, 2), 3, rng)
    W0[0, 1] = -W0[0, 0]  # member 0 degenerates
    stack = MlpModel([DenseLayer(W0, np.zeros((3, 2)), Activation("tanh"))],
                     DenseLayer(_stack((2, 2), 3, rng), np.zeros((3, 2)),
                                Activation("linear")))
    # member 2's weights go non-finite during training, after the check
    stack.hidden[0].weights[2, 0, 0] = np.inf
    reg = RegularizerSpec((LayerPenalty("eigen_decay", 0.1), LayerPenalty()), (0.0,))
    X = rng.standard_normal((3, 4, 2))
    Y = np.where(rng.random((3, 4, 2)) < 0.5, -1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = backward(stack, X, Y, "mse", [reg] * 3)
    assert sorted(got.failed) == [0, 2]
    assert "zero vector" in str(got.failed[0])
    assert str(got.failed[2]) == "matrix entries must be finite"
    # the healthy member's slice is its single-run gradient
    single = MlpModel([DenseLayer(W0[1], np.zeros(2), Activation("tanh"))],
                      DenseLayer(stack.output.weights[1], np.zeros(2), Activation("linear")))
    want = backward(single, X[1], Y[1], "mse", reg)
    for stacked, w in zip(got.as_list(), want.as_list()):
        np.testing.assert_array_equal(_bits(stacked[1]), _bits(w))


def _power_1d(m, p):
    """The normalized power iteration written with 1-D numpy: GEMV, the
    max-abs peak and np.linalg.norm."""
    v = np.ones(m.shape[0])
    for _ in range(p):
        v = m @ v
        v = v / float(np.max(np.abs(v)))
        v = v / float(np.linalg.norm(v))
    return float((m @ v) @ v) / float(v @ v)


@pytest.mark.parametrize("R", STACKS)
@pytest.mark.parametrize("sizes, B", SHAPES)
def test_power_dominant_eigen_stack_matches_each_member(sizes, B, R):
    rng = np.random.default_rng(16)
    for d, h in zip(sizes[:-1], sizes[1:]):
        M = gram(_stack((h, d), R, rng))
        for p in (1, 5, 9):
            est = power_dominant_eigen(M, p)
            assert est.failed == {}
            want = [power_dominant_eigen(M[r], p) for r in range(R)]
            assert_bitwise(est.lambda_dom[:, None], [np.array([w.lambda_dom]) for w in want])
            # and the 2-D call has the bits of the 1-D iteration
            for r, w in enumerate(want):
                lam = _power_1d(M[r], p)
                assert_bitwise(np.array([[w.lambda_dom]]), [np.array([lam])])


@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("R", STACKS)
@pytest.mark.parametrize("sizes, B", SHAPES)
def test_loss_batch_stack_matches_each_member(sizes, B, R, kind):
    rng = np.random.default_rng(17)
    L = sizes[-1]
    # a minibatch, and a full-data pass long enough for pairwise summation
    for n in (B, 1000):
        Yhat = _stack((n, L), R, rng)
        Y = np.where(rng.random((R, n, L)) < 0.5, -1.0, 1.0)
        got = loss_batch(kind, Yhat, Y)
        want = [loss_batch(kind, Yhat[r], Y[r]) for r in range(R)]
        assert all(type(w) is float for w in want)
        assert_bitwise(got[:, None], [np.array([w]) for w in want])


# A frozen copy of the per-member penalty path that the stacked
# objectives.penalties replaced. Once the stacked and 2-D calls ran
# the same code, comparing them with each other proved nothing; these
# references keep what each member's values, lambdas and errors were.

def _reference_value(entry, w, lambda_dom=None):
    """LayerPenalty.value on one member's weights, with eigen_decay_penalty,
    l1_penalty and l2_penalty as they were."""
    if entry.kind == "none" or entry.c == 0.0:
        return 0.0
    w = as_matrix(w)
    if entry.kind == "l1":
        return entry.c * float(np.sum(np.abs(w)))
    if entry.kind == "l2":
        return entry.c * float(np.sum(w * w))
    if not np.any(w):
        return 0.0
    if lambda_dom is None:
        lambda_dom = power_dominant_eigen(gram(w), entry.p).lambda_dom
    return entry.c * math.sqrt(max(lambda_dom, 0.0))


def _reference_objective(model, X, Y, loss_kind, reg):
    """The 2-D total_objective as (loss, *penalties, total), with the
    penalties summed one by one onto the loss."""
    _, _, Yhat = forward_batch(model, X)
    total = loss = loss_batch(loss_kind, Yhat, Y)
    pens = [_reference_value(entry, layer.weights)
            for entry, layer in zip(reg.layers, model.layers)]
    for pen in pens:
        total += pen
    return [loss, *pens, total]


def _reference_oracle_lambdas(reg, weights):
    """The finite-difference oracle's (lambdas, errors) for a stack of one
    spec: lambdas on penalized eigen-decay layers only, and each member's
    first error in layer order."""
    R = len(weights[0])
    lambdas = np.zeros((R, len(reg.layers)))
    errors = {}
    for k, entry in enumerate(reg.layers):
        if entry.kind == "none" or entry.c == 0.0:
            continue
        w = weights[k]
        if entry.kind == "eigen_decay":
            est = power_dominant_eigen(gram(w, check=False), entry.p)
            lambdas[:, k] = est.lambda_dom
            nonzero = w.any(axis=(1, 2))
            failed = {r: exc for r, exc in est.failed.items() if nonzero[r]}
        else:
            bad = ~np.isfinite(w).all(axis=(1, 2))
            failed = {r: ValueError(NONFINITE_MATRIX) for r in np.flatnonzero(bad).tolist()}
        for r, exc in failed.items():
            errors.setdefault(r, exc)
    return lambdas, errors


def _reference_epoch_lambdas(weights, regs):
    """The epoch end's lambdas and errors for finite weights: every layer's
    lambda from one stacked iteration per step count, and the first
    penalized eigen-decay layer whose iteration fails on a nonzero W."""
    R = len(regs)
    lambdas = np.zeros((R, len(weights)))
    errors = {}
    for k, w_all in enumerate(weights):
        groups = {}
        for j, reg in enumerate(regs):
            entry = reg.layers[k]
            groups.setdefault(entry.p if entry.kind == "eigen_decay" else 9, []).append(j)
        for p, idx in groups.items():
            w = w_all if len(idx) == R else w_all[idx]
            est = power_dominant_eigen(gram(w), p)
            nonzero = w.any(axis=(1, 2))
            for i, exc in est.failed.items():
                entry = regs[idx[i]].layers[k]
                if nonzero[i] and entry.kind == "eigen_decay" and entry.c != 0.0:
                    errors.setdefault(idx[i], exc)
            lambdas[idx, k] = np.where(nonzero, est.lambda_dom, 0.0)
    return lambdas, errors


# every penalty kind, eigen decay at two step counts, and C == 0
ENTRIES = [LayerPenalty(), LayerPenalty("l1", 0.001), LayerPenalty("l2", 0.002),
           LayerPenalty("eigen_decay", 0.01, 3), LayerPenalty("eigen_decay", 0.01, 9),
           LayerPenalty("eigen_decay", 0.0, 5), LayerPenalty("l2", 0.0)]


def _two_layer(params, activation="sigmoid"):
    return MlpModel([DenseLayer(params[0], params[1], Activation(activation))],
                    DenseLayer(params[2], params[3], Activation("linear")))


def _read(regs):
    # (R, layers) mask of the layers whose penalty reads a lambda: the
    # penalized eigen-decay ones
    return np.array([[entry.kind == "eigen_decay" and entry.c != 0.0 for entry in reg.layers]
                     for reg in regs])


def _epoch_records(params, regs, X, Y):
    """train._epoch_end on a stack whose member r trains on the rows X[r],
    Y[r] of one shared dataset."""
    R, B = X.shape[:2]
    ds = Dataset(X.reshape(R * B, -1), np.zeros(R * B, dtype=np.int64),
                 Y.reshape(R * B, -1), Y.shape[-1])
    members = [train._Member(None, reg, np.arange(r * B, (r + 1) * B), None)
               for r, reg in enumerate(regs)]
    template = _two_layer([p[0] for p in params])
    return train._epoch_end(members, params, template, ds, "multiclass_hinge", 0)


def _assert_stack_matches_reference(params, regs, X, Y):
    want, errors = _reference_epoch_lambdas(params[0::2], regs)
    assert errors == {}
    got, lambdas, failed = total_objective(_two_layer(params), X, Y, "multiclass_hinge", regs)
    assert failed == {}
    assert all(type(o.total) is float for o in got)
    members = [_reference_objective(_two_layer([p[r] for p in params]), X[r], Y[r],
                                    "multiclass_hinge", regs[r])
               for r in range(len(regs))]
    assert_bitwise(np.array([[o.loss, *o.penalties, o.total] for o in got]),
                   [np.array(m) for m in members])
    # the lambda each penalty read, and nan where none was read
    read = _read(regs)
    assert np.isnan(lambdas[~read]).all()
    assert_bitwise(np.where(read, lambdas, 0.0), list(np.where(read, want, 0.0)))
    # the epoch end's history records every layer's lambda
    records = _epoch_records(params, regs, X, Y)
    assert_bitwise(np.array([[r.train_loss, r.train_objective] for r in records]),
                   [np.array([m[0], m[-1]]) for m in members])
    assert_bitwise(np.array([r.lambda_dom for r in records]), list(want))


@pytest.mark.parametrize("R", STACKS)
@pytest.mark.parametrize("sizes, B", SHAPES)
def test_total_objective_stack_matches_each_member(sizes, B, R):
    rng = np.random.default_rng(18)
    models = [init_mlp(list(sizes), "sigmoid", seed=int(s)) for s in rng.integers(0, 99, R)]
    X = rng.uniform(0.0, 1.0, (R, B, sizes[0]))
    Y = np.where(rng.random((R, B, sizes[-1])) < 0.5, -1.0, 1.0)
    gathered = [R - 1, 0] if R > 1 else [0]
    for shift in range(len(ENTRIES)):
        params = [np.stack(p) for p in zip(*(model_params(m) for m in models))]
        if shift % 2:
            params[0][shift % R] = 0.0  # a zero W, whose lambda is 0
        regs = [RegularizerSpec((ENTRIES[(shift + r) % len(ENTRIES)],
                                 ENTRIES[(shift + 2 * r + 3) % len(ENTRIES)]), (0.0,))
                for r in range(R)]
        _assert_stack_matches_reference(params, regs, X, Y)
        _assert_stack_matches_reference([p[gathered] for p in params],
                                        [regs[r] for r in gathered], X[gathered],
                                        Y[gathered])


# weights a penalty value fails on, each a member's hidden layer: not
# finite, finite with a gram that overflows, and rows w and -w, which put
# the all-ones start in the kernel of W W^T
FAILING = [np.array([[0.3, -1.2], [0.7, 0.4]]), np.array([[np.nan, 1.0], [0.5, 2.0]]),
           np.array([[np.inf, 0.0], [0.0, 0.0]]), np.full((2, 2), 1e200),
           np.array([[1.0, 0.0], [-1.0, 0.0]])]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("entry", ENTRIES, ids=str)
@pytest.mark.parametrize("output", ["healthy", "kernel"])
def test_penalty_errors_match_the_reference(entry, output):
    rng = np.random.default_rng(19)
    X = rng.uniform(0.0, 1.0, (4, 2))
    Y = np.where(rng.random((4, 2)) < 0.5, -1.0, 1.0)
    w_out = rng.standard_normal((2, 2))
    out_entry = LayerPenalty("l1", 0.001)
    if output == "kernel":
        # a later layer that fails too: the first error in layer order wins
        w_out, out_entry = FAILING[-1], LayerPenalty("eigen_decay", 0.5)
    reg = RegularizerSpec((entry, out_entry), (0.0,))
    models = []
    for w in FAILING:
        model = _two_layer([np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), np.zeros(2)])
        # assigned after construction, which rejects weights that are not finite
        model.hidden[0].weights, model.output.weights = w, w_out
        models.append(model)
        got = _outcome(lambda: total_objective(model, X, Y, "mse", reg))
        want = _outcome(lambda: _reference_objective(model, X, Y, "mse", reg))
        if want[0] == "ok":
            o = got[1]
            assert_bitwise(np.array([[o.loss, *o.penalties, o.total]]), [np.array(want[1])])
        else:
            assert got == want

    # the members of one stack: each one's values, lambdas and error
    weights = [np.stack([m.hidden[0].weights for m in models]),
               np.stack([m.output.weights for m in models])]
    want_lambdas, errors = _reference_oracle_lambdas(reg, weights)
    stack = _two_layer([np.zeros((5, 2, 2)), np.zeros((5, 2))] * 2)
    stack.hidden[0].weights, stack.output.weights = weights
    got, lambdas, failed = total_objective(stack, np.stack([X] * 5), np.stack([Y] * 5),
                                           "mse", [reg] * 5)
    assert {r: (type(e), str(e)) for r, e in failed.items()} == \
        {r: (type(e), str(e)) for r, e in errors.items()}
    read = _read([reg])[0]
    for r, model in enumerate(models):
        alone = _outcome(lambda: total_objective(model, X, Y, "mse", reg))
        assert (r in failed) == (alone[0] == "raise")
        assert np.isnan(lambdas[r, ~read]).all()
        if r not in failed:
            o, want = got[r], alone[1]
            assert_bitwise(np.array([[o.loss, *o.penalties, o.total]]),
                           [np.array([want.loss, *want.penalties, want.total])])
            assert_bitwise(lambdas[r:r + 1, read], [want_lambdas[r, read]])


def _outcome(call):
    """What a call gives: ("ok", result) or ("raise", type, message)."""
    try:
        return ("ok", call())
    except (ValueError, OverflowError, DegenerateIterateError) as exc:
        return ("raise", type(exc), str(exc))


# Penalty edge cases: zero weights (the iteration cannot start), rank-1
# weights, weights whose gram is huge or overflows, weights whose gram
# sends the all-ones start to zero (two rows w and -w), tiny weights whose
# estimate is below EIGEN_GRAD_FLOOR, and nonzero weights whose squares
# underflow to zero
EDGE_KINDS = ("gaussian", "zero", "rank1", "huge", "kernel", "tiny", "underflow")


@st.composite
def edge_stacks(draw):
    rows, cols = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(EDGE_KINDS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ws = []
    for kind in kinds:
        w = rng.standard_normal((rows, cols))
        if kind == "zero":
            w[:] = 0.0
        elif kind == "rank1":
            w = np.outer(rng.standard_normal(rows), rng.standard_normal(cols))
        elif kind == "huge":
            # gram entries from about 1e280 (finite) to 1e400 (overflow)
            w *= 10.0 ** draw(st.integers(140, 200))
        elif kind == "kernel":
            w[2:] = 0.0
            w[1] = -w[0]
        elif kind == "tiny":
            w *= 10.0 ** -draw(st.integers(7, 150))
        elif kind == "underflow":
            w *= 10.0 ** -draw(st.integers(165, 300))
        ws.append(w)
    return np.stack(ws)


def _assert_same_eigen_outcomes(W, p):
    est = power_dominant_eigen(gram(W), p)
    for r in range(len(W)):
        want = _outcome(lambda: power_dominant_eigen(gram(W[r]), p).lambda_dom)
        if want[0] == "ok":
            assert r not in est.failed
            assert_bitwise(est.lambda_dom[r:r + 1, None], [np.array([want[1]])])
        else:
            exc = est.failed[r]
            assert ("raise", type(exc), str(exc)) == want
            assert np.isnan(est.lambda_dom[r])


def _assert_same_gradient_outcomes(W, C, p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        grad, failed = eigen_decay_gradient(W, C, p)
        for r in range(len(W)):
            want = _outcome(lambda: eigen_decay_gradient(W[r], C, p))
            value = _outcome(lambda: power_dominant_eigen(gram(W[r]), p).lambda_dom)
            if want[0] == "ok":
                assert r not in failed
                assert np.isfinite(want[1]).all()
                assert_bitwise(grad[r:r + 1], [want[1]])
            else:
                assert ("raise", type(failed[r]), str(failed[r])) == want
                assert not np.any(grad[r])
            # where the penalty value fails for a gram or iterate past float
            # range, the gradient fails with the same error, and only there
            overflowed = [o[0] == "raise" and o[1] in (ValueError, OverflowError)
                          for o in (want, value)]
            if any(overflowed):
                assert want == value


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@given(edge_stacks(), st.sampled_from([1, 3, 9]))
@settings(max_examples=60, deadline=None)
def test_stacked_eigen_edge_cases_match_each_member(W, p):
    _assert_same_eigen_outcomes(W, p)
    _assert_same_gradient_outcomes(W, 0.5, p)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_all_ones_start_in_the_kernel():
    W = np.stack([np.array([[1.0, 0.0], [-1.0, 0.0]]), np.eye(2), np.zeros((2, 2)),
                  np.full((2, 2), 1e200)])
    est = power_dominant_eigen(gram(W), 9)
    assert sorted(est.failed) == [0, 2, 3]
    assert isinstance(est.failed[0], DegenerateIterateError)
    assert str(est.failed[3]) == "matrix entries must be finite"
    assert est.lambda_dom[1] == 1.0
    _assert_same_eigen_outcomes(W, 9)
    _assert_same_gradient_outcomes(W, 0.5, 9)


def test_overflowing_member_fails_at_once_and_leaves_the_others_alone():
    # member 1's gram overflows (hidden weights near 1e160): its penalty
    # gradient fails on the first step, as the penalty value on those
    # weights does, instead of feeding a nan update into the next step
    ds = gen_two_gaussians(20, centers=((-1.0, 0.0), (1.0, 0.0)), sigma=0.6, seed=3)
    cfg = TrainConfig(learning_rate=0.2, batch_size=8, max_epochs=4, seed=1)
    reg = RegularizerSpec((LayerPenalty("eigen_decay", 0.01), LayerPenalty("l2", 1e-3)),
                          (0.0,))
    models = [init_mlp([2, 4, 2], "sigmoid", seed=r) for r in range(3)]
    models[1].hidden[0].weights *= 1e160
    start = [a.copy() for a in model_params(models[1])]
    members = [train._member(m, ds, None, reg, cfg) for m in models]
    results = train._sgd_stack(members, ds, "mse", cfg)

    assert isinstance(results[1], DivergenceError)
    assert str(results[1]) == "parameters diverged during epoch 0: matrix entries must be finite"
    # it ends on the finite weights its failed gradient was formed at
    for got, want in zip(model_params(models[1]), start):
        np.testing.assert_array_equal(_bits(got), _bits(want))
    for r in (0, 2):
        alone = init_mlp([2, 4, 2], "sigmoid", seed=r)
        _, history = sgd_train(alone, ds, "mse", reg, cfg)
        assert results[r].records() == history.records()
        for got, want in zip(model_params(models[r]), model_params(alone)):
            np.testing.assert_array_equal(_bits(got), _bits(want))


# Frozen copies of the training step as it was written before it worked in
# place and read the slopes from the activations: the penalty gradient on
# (R, n) row iterates with its full finiteness and all-zero scans, the
# gram mirrored through np.where, the two-division sigmoid, a forward pass
# that kept the preactivations and a backward pass that took the
# activation derivative from them, each product a new array. The program
# must keep their bits, errors and warnings.

def _reference_gram(w):
    g = w @ w.swapaxes(-1, -2)
    return np.where(np.tri(g.shape[-1], dtype=bool), g, g.swapaxes(-1, -2)) + 0.0


def _reference_activation(kind, v):
    if kind == "sigmoid":
        return reference_sigmoid(v)
    if kind == "tanh":
        return np.tanh(v)
    if kind == "relu":
        return np.maximum(v, 0.0)
    return v


def _reference_mv(m, v):
    return (m @ v[..., None])[..., 0]


def _reference_dot(a, b):
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _reference_eigen_decay_stack(ws, cs, p):
    """The stacked eigen_decay_gradient's (grad, failed)."""
    finite = np.isfinite(ws).all(axis=(1, 2))
    failed = {r: ValueError(NONFINITE_MATRIX) for r in np.flatnonzero(~finite).tolist()}
    live = (cs != 0.0) & finite & ws.any(axis=(1, 2))
    if not live.any():
        return np.zeros_like(ws), failed
    hit_zero = np.zeros(len(ws), dtype=bool)
    norm_overflow = np.zeros(len(ws), dtype=bool)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m = _reference_gram(ws)
        iterates = [np.ones(ws.shape[:2])]
        norms = []
        v = iterates[0]
        for _ in range(p):
            v = _reference_mv(m, v)
            nrm = np.sqrt(_reference_dot(v, v))
            hit_zero |= nrm == 0.0
            norm_overflow |= nrm == np.inf
            v = v / nrm[:, None]
            norms.append(nrm)
            iterates.append(v)
        den = _reference_dot(v, v)
        hit_zero |= den == 0.0
        degenerate = live & hit_zero
        live &= ~degenerate
        mv = _reference_mv(m, v)
        num = _reference_dot(mv, v)
        lam = num / den
        overflow = live & ~np.isfinite(lam)
        live &= ~overflow
        below = live & (lam < EIGEN_GRAD_FLOOR)
        if below.any():
            warnings.warn(
                "eigenvalue penalty gradient treated as zero: dominant-eigenvalue "
                f"estimate {lam[below][0]:.3e} is below {EIGEN_GRAD_FLOOR:.0e}",
                RuntimeWarning,
            )
        dnum = 1.0 / den
        dden = -num / (den * den)
        gm = (v[:, :, None] * v[:, None, :]) * dnum[:, None, None]
        dv = 2.0 * mv * dnum[:, None] + 2.0 * v * dden[:, None]
        for t in range(p, 0, -1):
            vt = iterates[t]
            du = (dv - vt * _reference_dot(vt, dv)[:, None]) / norms[t - 1][:, None]
            gm += du[:, :, None] * iterates[t - 1][:, None, :]
            if t > 1:
                dv = _reference_mv(m, du)
        dlam_dw = (gm + gm.swapaxes(-1, -2)) @ ws
        grad = (cs / (2.0 * np.sqrt(lam)))[:, None, None] * dlam_dw
    keep = live & ~below
    if not keep.all():
        grad = np.where(keep[:, None, None], grad, 0.0)
    for r in np.flatnonzero(degenerate | overflow).tolist():
        if degenerate[r]:
            failed[r] = DegenerateIterateError(
                NORM_OVERFLOW if norm_overflow[r] else DEGENERATE_ITERATE)
        elif np.isfinite(m[r]).all():
            failed[r] = OverflowError(ITERATE_OVERFLOW)
        else:
            failed[r] = ValueError(NONFINITE_MATRIX)
    return grad, failed


def _reference_forward_batch(model, X, masks):
    vs, ys = [], []
    Y = X
    for k, layer in enumerate(model.hidden):
        V = Y @ layer.weights.swapaxes(-1, -2) + layer.bias[..., None, :]
        Y = _reference_activation(layer.activation.kind, V)
        if masks is not None and masks[k] is not None:
            Y = Y * masks[k]
        vs.append(V)
        ys.append(Y)
    out = model.output
    return vs, ys, Y @ out.weights.swapaxes(-1, -2) + out.bias[..., None, :]


def _reference_backward(model, X, Y, loss_kind, regs, masks):
    """A stacked backward's (dW, db, failed)."""
    vs, ys, Yhat = _reference_forward_batch(model, X, masks)
    G = loss_gradient_batch(loss_kind, Yhat, Y)
    K = len(model.hidden)
    dW, db = [None] * (K + 1), [None] * (K + 1)
    dW[K] = G.swapaxes(-1, -2) @ ys[-1]
    db[K] = G.sum(axis=-2)
    D = G @ model.output.weights
    for k in range(K - 1, -1, -1):
        layer = model.hidden[k]
        if masks is not None and masks[k] is not None:
            D = D * masks[k]
        D = D * reference_deriv(layer.activation.kind, vs[k])
        prev = X if k == 0 else ys[k - 1]
        dW[k] = D.swapaxes(-1, -2) @ prev
        db[k] = D.sum(axis=-2)
        if k > 0:
            D = D @ layer.weights
    failed = {}
    for k, layer in enumerate(model.layers):
        w, d = layer.weights, dW[k]
        for (kind, p), members in _penalized(regs, k).items():
            idx = np.array(members)
            c = np.array([regs[r].layers[k].c for r in members])
            wk = w if len(idx) == len(w) else w[idx]
            if kind == "l1":
                pg = c[:, None, None] * np.sign(wk)
            elif kind == "l2":
                pg = (2.0 * c)[:, None, None] * wk
            else:
                pg, errors = _reference_eigen_decay_stack(wk, c, p)
                for j, exc in errors.items():
                    failed.setdefault(int(idx[j]), exc)
                if errors:
                    ok = [j for j in range(len(idx)) if j not in errors]
                    idx, pg = idx[ok], pg[ok]
            if len(idx) == len(d):
                d = d + pg
            elif len(idx):
                d[idx] += pg
        dW[k] = d
    return dW, db, failed


def _errors(failed):
    return {r: (type(exc), str(exc)) for r, exc in failed.items()}


def _warned(call):
    """(result, [(category, message)]) of a call, every warning recorded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [(w.category, str(w.message)) for w in caught]


SPECIALS = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-320, -1e-320,
                     709.0, -709.0, 746.0, -746.0, 1e308, -1e308])


def _values(rng, shape):
    # a spread of magnitudes with the special values mixed in
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    v.flat[rng.integers(0, v.size, max(1, v.size // 8))] = rng.choice(SPECIALS, max(1, v.size // 8))
    return v


@given(st.integers(1, 25), st.integers(1, 40), st.integers(1, 20),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_gram_and_sigmoid_keep_the_frozen_bits(R, rows, cols, seed):
    rng = np.random.default_rng(seed)
    W = _stack((rows, cols), R, rng)
    W[rng.random(R) < 0.2] = 0.0
    W[..., rng.integers(rows), :] *= -0.0
    np.testing.assert_array_equal(_bits(gram(W)), _bits(_reference_gram(W)))
    np.testing.assert_array_equal(_bits(gram(W[0])), _bits(_reference_gram(W[0])))
    v = _values(rng, (R, rows, cols))
    (got, want), warned = zip(*(_warned(lambda f=f: f(v)) for f in (_sigmoid, reference_sigmoid)))
    np.testing.assert_array_equal(_bits(got), _bits(want))
    assert warned[0] == warned[1]


@pytest.mark.parametrize("kind", ["sigmoid", "tanh", "relu", "linear"])
def test_slope_of_the_value_is_the_frozen_derivative(kind):
    # slope(value(v)) performs the ops deriv(v) performed
    v = _values(np.random.default_rng(19), (64, 33))
    act = Activation(kind)
    with np.errstate(all="ignore"):
        got = act.slope(act.value(v))
        want = reference_deriv(kind, v)
    np.testing.assert_array_equal(_bits(got), _bits(want))


def _random_stack(R, sizes, kinds, rng):
    layers = []
    for k, (d, h) in enumerate(zip(sizes[:-1], sizes[1:])):
        kind = kinds[k] if k < len(sizes) - 2 else "linear"
        scale = rng.uniform(0.1, 2.0, (R, 1, 1))
        layers.append(DenseLayer(rng.standard_normal((R, h, d)) * scale / np.sqrt(d),
                                 rng.normal(scale=0.3, size=(R, h)), Activation(kind)))
    return MlpModel(layers[:-1], layers[-1])


def _assert_backward_matches_the_reference(model, X, Y, loss_kind, regs, masks):
    got, warned = _warned(lambda: backward(model, X, Y, loss_kind, regs, masks))
    (dW, db, failed), ref_warned = _warned(
        lambda: _reference_backward(model, X, Y, loss_kind, regs, masks))
    assert _errors(got.failed) == _errors(failed)
    for a, b in zip(got.dW + got.db, dW + db):
        np.testing.assert_array_equal(_bits(a), _bits(b))
    assert warned == ref_warned
    # the forward pass hands backward each hidden layer's activations
    # before dropout and after it
    acts, ys, Yhat = forward_batch(model, X, masks)
    vs, ref_ys, ref_Yhat = _reference_forward_batch(model, X, masks)
    for layer, a, y, v, ref_y in zip(model.hidden, acts, ys, vs, ref_ys):
        np.testing.assert_array_equal(_bits(a), _bits(_reference_activation(
            layer.activation.kind, v)))
        np.testing.assert_array_equal(_bits(y), _bits(ref_y))
    np.testing.assert_array_equal(_bits(Yhat), _bits(ref_Yhat))


STEP_ENTRIES = ENTRIES + [LayerPenalty("eigen_decay", 0.3, 1), LayerPenalty("l1", 0.5)]


@given(R=st.integers(1, 25), hidden=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       n_in=st.integers(1, 5), n_out=st.integers(1, 4), batch=st.integers(1, 12),
       kinds=st.lists(st.sampled_from(["sigmoid", "tanh", "relu", "linear"]),
                      min_size=3, max_size=3),
       dropout=st.booleans(), loss_kind=st.sampled_from(LOSS_KINDS),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_backward_keeps_the_frozen_bits(R, hidden, n_in, n_out, batch, kinds, dropout,
                                        loss_kind, seed):
    rng = np.random.default_rng(seed)
    sizes = [n_in, *hidden, n_out]
    model = _random_stack(R, sizes, kinds, rng)
    X = rng.uniform(-1.0, 1.0, (R, batch, n_in))
    Y = np.where(rng.random((R, batch, n_out)) < 0.5, -1.0, 1.0)
    K = len(hidden)
    regs = [RegularizerSpec(tuple(STEP_ENTRIES[i] for i in rng.integers(0, len(STEP_ENTRIES),
                                                                        K + 1)),
                            (0.25,) * K if dropout else ())
            for _ in range(R)]
    masks = None
    if dropout:
        # a layer of ones where no member drops, as _stacked_masks gives
        masks = [np.where(rng.random((R, batch, h)) < 0.25, 0.0, 1.0 / 0.75) for h in hidden]
    _assert_backward_matches_the_reference(model, X, Y, loss_kind, regs, masks)


@pytest.mark.parametrize("kind, dropout", [("relu", False), ("sigmoid", True)])
def test_backward_keeps_the_frozen_bits_at_784_128_10(kind, dropout):
    rng = np.random.default_rng(20)
    R, B = 2, 128
    model = _random_stack(R, [784, 128, 10], [kind], rng)
    X = rng.uniform(0.0, 1.0, (R, B, 784))
    Y = np.where(rng.random((R, B, 10)) < 0.1, 1.0, -1.0)
    regs = [RegularizerSpec((LayerPenalty("eigen_decay", 1e-3), LayerPenalty("l2", 1e-4)),
                            (0.2,) if dropout else ()),
            RegularizerSpec((LayerPenalty("eigen_decay", 1e-2, 5), LayerPenalty()),
                            (0.2,) if dropout else ())]
    masks = [np.where(rng.random((R, B, 128)) < 0.2, 0.0, 1.25)] if dropout else None
    _assert_backward_matches_the_reference(model, X, Y, "mse", regs, masks)


EDGE_POISON = (np.nan, np.inf, -np.inf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(edge_stacks(), st.sampled_from([1, 3, 9]), st.lists(st.integers(0, 3), max_size=6),
       st.sampled_from([0.0, 0.5, 2.0]))
@settings(max_examples=100, deadline=None)
def test_penalty_gradient_edge_cases_keep_the_frozen_outcomes(W, p, poison, c0):
    # each member's bits, error type and text, and the warnings raised;
    # a member may hold a non-finite entry, and member 0 may have C == 0
    W = W.copy()
    for r, which in enumerate(poison[:len(W)]):
        if which:
            W[r, r % W.shape[1], 0] = EDGE_POISON[which - 1]
    C = np.full(len(W), 0.5)
    C[0] = c0
    (grad, failed), warned = _warned(lambda: eigen_decay_gradient(W, C, p))
    (want, want_failed), want_warned = _warned(
        lambda: _reference_eigen_decay_stack(W, C, p))
    assert _errors(failed) == _errors(want_failed)
    np.testing.assert_array_equal(_bits(grad), _bits(want))
    assert warned == want_warned
    assert all(message.startswith("eigenvalue penalty gradient treated as zero")
               for _, message in warned)


def test_weights_whose_squares_underflow_are_not_the_zero_matrix():
    # the gram diagonal of these weights is zero, but W is not: the
    # iterate hits the zero vector, as the frozen full scan found
    W = np.stack([np.full((2, 3), 1e-170), np.zeros((2, 3)), np.eye(2, 3)])
    grad, failed = eigen_decay_gradient(W, 0.5)
    want, want_failed = _reference_eigen_decay_stack(W, np.full(3, 0.5), 9)
    assert _errors(failed) == _errors(want_failed) == {
        0: (DegenerateIterateError, DEGENERATE_ITERATE)}
    np.testing.assert_array_equal(_bits(grad), _bits(want))
    with pytest.raises(DegenerateIterateError, match="zero vector"):
        eigen_decay_gradient(W[0], 0.5)


def _reference_sgd(model, dataset, loss_kind, reg, config):
    """sgd_train's final parameters, stepped with the frozen backward and
    the update that formed each learning-rate product as a new array."""
    params = [p[None].copy() for p in model_params(model)]
    velocity = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(config.seed)
    n = len(dataset)
    for _ in range(config.max_epochs):
        rows = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = rows[start:start + config.batch_size]
            masks = sample_dropout_masks(reg.dropout, model.hidden_dims, len(idx), rng)
            if masks is not None:
                masks = [None if m is None else m[None] for m in masks]
            dW, db, failed = _reference_backward(
                _with_params(model, params), dataset.features[idx][None],
                dataset.encoded[idx][None], loss_kind, [reg], masks)
            assert failed == {}
            for p, g, v in zip(params, [a for pair in zip(dW, db) for a in pair], velocity):
                if config.momentum == 0.0:
                    p -= config.learning_rate * g
                else:
                    v *= config.momentum
                    v -= config.learning_rate * g
                    p += v
    return [p[0] for p in params]


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_sgd_steps_keep_the_frozen_update(momentum):
    ds = gen_two_gaussians(40, centers=((-1.0, 0.0), (1.0, 0.0)), sigma=0.7, seed=5)
    cfg = TrainConfig(learning_rate=0.3, batch_size=16, max_epochs=3, seed=2,
                      momentum=momentum)
    reg = RegularizerSpec((LayerPenalty("eigen_decay", 0.01), LayerPenalty("eigen_decay", 0.02),
                           LayerPenalty("l2", 1e-3)), (0.2, 0.0))
    model = init_mlp([2, 8, 6, 2], ["sigmoid", "tanh"], seed=4)
    want = _reference_sgd(model, ds, "mse", reg, cfg)
    sgd_train(model, ds, "mse", reg, cfg)
    for got, w in zip(model_params(model), want):
        np.testing.assert_array_equal(_bits(got), _bits(w))
