"""numpy over a leading member axis gives each slice exactly the bits of the
2-D call. The stacked SGD loop (train._sgd_stack) rests on this: a numpy or
BLAS upgrade that breaks it fails here, before any output changes."""

import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from conftest import _warned
import reference

from eigendecay import train
from eigendecay.data import Dataset, gen_two_gaussians
from eigendecay.grad import backward, eigen_decay_gradient
from eigendecay.linalg import (
    DEGENERATE_START,
    DegenerateIterateError,
    gram,
    power_dominant_eigen,
)
from eigendecay.model import (
    Activation,
    DenseLayer,
    MlpModel,
    _ACTIVATIONS,
    _relu_slope,
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
    _StackSpecs,
    loss_batch,
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
            assert_bitwise(reference.gram(W), want)
            assert_bitwise(gram(W), want)


@pytest.mark.parametrize("R", STACKS)
@pytest.mark.parametrize("sizes, B", SHAPES)
def _member_gradient(W, C, p, r):
    """Member r's gradient and error, from the stack of that member alone."""
    grad, failed = eigen_decay_gradient(W[r:r + 1], C[r:r + 1], p)
    return grad[0], failed.get(0)


def _assert_gradient_matches_the_reference(W, C, p):
    """The stack's (grad, failed), once it keeps reference.power_gradient's
    bits and errors."""
    grad, failed = eigen_decay_gradient(W, C, p)
    want, want_failed = reference.power_gradient(W, C, p)
    assert _errors(failed) == _errors(want_failed)
    np.testing.assert_array_equal(_bits(grad), _bits(want))
    return grad, failed


@pytest.mark.parametrize("R", STACKS)
@pytest.mark.parametrize("sizes, B", SHAPES)
def test_eigen_decay_gradient_stack_matches_each_member(sizes, B, R):
    rng = np.random.default_rng(11)
    for d, h in zip(sizes[:-1], sizes[1:]):
        W = _stack((h, d), R, rng)
        C = rng.uniform(0.001, 0.1, R)
        stacked, failed = _assert_gradient_matches_the_reference(W, C, 9)
        assert failed == {}
        assert_bitwise(stacked, [_member_gradient(W, C, 9, r)[0] for r in range(R)])


def test_eigen_decay_gradient_stack_zeroes_dead_members():
    rng = np.random.default_rng(12)
    W = _stack((4, 3), 3, rng)
    W[1] = 0.0
    W[2] = 1e-9 * W[0]  # lambda ~ 1e-18 lambda_0
    C = np.array([0.5, 0.5, 0.5])
    stacked, failed = _assert_gradient_matches_the_reference(W, C, 9)
    assert failed == {}
    assert_bitwise(stacked, [_member_gradient(W, C, 9, r)[0] for r in range(3)])
    assert np.any(stacked[0]) and not np.any(stacked[1])
    # C * ||W||_2 is linear in the scale of W, so the tiny member is live
    # and has the gradient of the member it is a multiple of
    assert np.max(np.abs(stacked[2] - stacked[0])) <= 1e-12 * np.max(np.abs(stacked[0]))
    # without the zero member every member is live: the kernel marks and
    # zeroes nothing, and each slice keeps the bits it has above
    live, failed = _assert_gradient_matches_the_reference(W[[0, 2]], C[[0, 2]], 9)
    assert failed == {}
    assert_bitwise(live, [stacked[0], stacked[2]])


def test_degenerate_members_are_marked_and_zeroed():
    rng = np.random.default_rng(13)
    W = _stack((2, 2), 5, rng)
    for r in (1, 3):
        W[r, 1] = -W[r, 0]  # W W^T maps the all-ones start to zero
    W[4, 0, 1] = np.nan
    C = np.full(5, 0.5)
    grad, failed = _assert_gradient_matches_the_reference(W, C, 9)
    assert sorted(failed) == [1, 3, 4]
    for r in (1, 3):
        assert isinstance(failed[r], DegenerateIterateError)
        assert "zero vector" in str(failed[r])
    assert type(failed[4]) is ValueError
    assert str(failed[4]) == "matrix entries must be finite"
    assert not np.any(grad[[1, 3, 4]])
    assert_bitwise(grad[[0, 2]], [_member_gradient(W, C, 9, r)[0] for r in (0, 2)])
    # each member alone records the error it has in the stack
    for r in (1, 3, 4):
        alone, error = _member_gradient(W, C, 9, r)
        assert (type(error), str(error)) == (type(failed[r]), str(failed[r]))
        assert not np.any(alone)

    # one live member among a zero W, a non-finite W, a start in the
    # kernel, a gram past float range, and a start so near the kernel that
    # one step reads lambda < 0
    W = np.stack([
        [[0.3], [-1.2], [0.7]],
        [[0.0], [0.0], [0.0]],
        [[1.0], [np.inf], [0.0]],
        [[1.0], [-1.0], [0.0]],
        [[1e160], [1.0], [1.0]],
        [[-0.7723013541726013], [1.5825995690031542], [-0.8102982148305529]],
    ])
    C = np.full(len(W), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the frozen copy's
        grad, failed = _assert_gradient_matches_the_reference(W, C, 1)
        # and each beside the live member alone
        for r in range(1, len(W)):
            pair, pair_failed = _assert_gradient_matches_the_reference(W[[0, r]], C[:2], 1)
            assert_bitwise(pair, [grad[0], grad[r]])
            assert _errors(pair_failed) == _errors({1: failed[r]} if r in failed else {})
    assert _errors(failed) == {
        2: (ValueError, "matrix entries must be finite"),
        3: (DegenerateIterateError, DEGENERATE_START),
        4: (ValueError, "matrix entries must be finite"),
    }
    assert np.any(grad[0]) and not np.any(grad[1:])
    for r in range(len(W)):
        alone, error = _member_gradient(W, C, 1, r)
        assert_bitwise(grad[r:r + 1], [alone])
        assert (type(error), str(error)) == (type(failed.get(r)), str(failed.get(r)))


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


@pytest.mark.parametrize("R", STACKS)
@pytest.mark.parametrize("sizes, B", SHAPES)
def test_power_dominant_eigen_stack_matches_each_member(sizes, B, R):
    rng = np.random.default_rng(16)
    for d, h in zip(sizes[:-1], sizes[1:]):
        M = gram(_stack((h, d), R, rng))
        for p in (1, 5, 9):
            lam, failed = power_dominant_eigen(M, p)
            assert failed == {}
            assert_bitwise(lam[:, None], [power_dominant_eigen(M[r:r + 1], p)[0]
                                          for r in range(R)])
            # and each member has the bits of the 1-D iteration
            for r in range(R):
                want, error = reference.power(M[r], p)
                assert error is None
                assert_bitwise(lam[r:r + 1, None], [np.array([want])])


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
    cfg = TrainConfig(learning_rate=0.0)
    members = [train._Member(None, reg, np.arange(r * B, (r + 1) * B), None, cfg)
               for r, reg in enumerate(regs)]
    template = _two_layer([p[0] for p in params])
    return train._epoch_end(members, params, template, train._gathers(members, ds),
                            "multiclass_hinge", 0, _StackSpecs(regs))


def _assert_stack_matches_reference(params, regs, X, Y):
    want, errors = reference.lambdas(params[0::2], regs)
    assert errors == {}
    got, lambdas, failed = total_objective(_two_layer(params), X, Y, "multiclass_hinge", regs)
    assert failed == {}
    assert all(type(o.total) is float for o in got)
    members = [reference.objective(_two_layer([p[r] for p in params]), X[r], Y[r],
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
        want = _outcome(lambda: reference.objective(model, X, Y, "mse", reg))
        if want[0] == "ok":
            o = got[1]
            assert_bitwise(np.array([[o.loss, *o.penalties, o.total]]), [np.array(want[1])])
        else:
            assert got == want

    # the members of one stack: each one's values, lambdas and error
    weights = [np.stack([m.hidden[0].weights for m in models]),
               np.stack([m.output.weights for m in models])]
    want_lambdas, errors = reference.lambdas(weights, [reg] * 5)
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
# sends the all-ones start to zero (two rows w and -w), tiny weights (1e-7
# to 1e-150), and nonzero weights whose squares underflow to zero
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


def _value_outcome(w, p):
    """What the stacked penalty value gives the stack of one W alone:
    ("ok", lambda) or ("raise", type, message) of its recorded error."""
    lam, failed = power_dominant_eigen(gram(w[None]), p)
    if failed:
        return ("raise", type(failed[0]), str(failed[0]))
    return ("ok", lam[0])


def _assert_same_eigen_outcomes(W, p):
    lam, failed = power_dominant_eigen(gram(W), p)
    for r in range(len(W)):
        want = _value_outcome(W[r], p)
        ref, error = reference.power(reference.gram(W[r]), p)
        if want[0] == "ok":
            assert r not in failed and error is None
            assert_bitwise(lam[r:r + 1, None], [np.array([want[1]])])
            assert_bitwise(lam[r:r + 1, None], [np.array([ref])])
        else:
            exc = failed[r]
            assert ("raise", type(exc), str(exc)) == want == ("raise", type(error), str(error))
            assert np.isnan(lam[r])


def _gradient_outcome(W, C, p, r):
    # member r alone: its gradient, or the type and text of its error
    grad, error = _member_gradient(W, C, p, r)
    return ("ok", grad) if error is None else ("raise", type(error), str(error))


def _assert_same_gradient_outcomes(W, c, p):
    C = np.full(len(W), c)
    grad, failed = _assert_gradient_matches_the_reference(W, C, p)
    for r in range(len(W)):
        want = _gradient_outcome(W, C, p, r)
        value = _value_outcome(W[r], p)
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
# a "huge" member whose largest gram entry is 1.79e308: the value's Rayleigh
# numerator overflows, and the gradient's first iterate norm does too
@example(np.array([[[1.45356467e153, 2.56842658e153, -1.97979807e153],
                    [-1.21828213e154, 4.13315535e153, 3.66310439e153]]]), 3)
@settings(max_examples=60, deadline=None)
def test_stacked_eigen_edge_cases_match_each_member(W, p):
    _assert_same_eigen_outcomes(W, p)
    _assert_same_gradient_outcomes(W, 0.5, p)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_all_ones_start_in_the_kernel():
    W = np.stack([np.array([[1.0, 0.0], [-1.0, 0.0]]), np.eye(2), np.zeros((2, 2)),
                  np.full((2, 2), 1e200)])
    lam, failed = power_dominant_eigen(gram(W), 9)
    assert sorted(failed) == [0, 2, 3]
    assert isinstance(failed[0], DegenerateIterateError)
    assert str(failed[3]) == "matrix entries must be finite"
    assert lam[1] == 1.0
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
    results = train._sgd_stack(members, ds, "mse")

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


def _errors(failed):
    return {r: (type(exc), str(exc)) for r, exc in failed.items()}


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
    np.testing.assert_array_equal(_bits(gram(W)), _bits(reference.gram(W)))
    np.testing.assert_array_equal(_bits(gram(W[0])), _bits(reference.gram(W[0])))
    v = _values(rng, (R, rows, cols))
    (got, want), warned = zip(*(_warned(lambda f=f: f(v)) for f in (_sigmoid, reference.sigmoid)))
    np.testing.assert_array_equal(_bits(got), _bits(want))
    assert warned[0] == warned[1]


def _laid_out(W, layout):
    # the same values in C order, in Fortran order, or as a strided view
    if layout == "fortran":
        return np.asfortranarray(W)
    if layout == "strided":
        big = np.full(W.shape[:-2] + (2 * W.shape[-2], 3 * W.shape[-1]), np.nan)
        big[..., ::2, ::3] = W
        return big[..., ::2, ::3]
    return W


@given(st.integers(1, 6), st.integers(1, 40), st.integers(1, 20), st.integers(-200, 200),
       st.sampled_from(["c", "fortran", "strided"]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_gram_is_symmetric_to_the_bit_with_no_negative_zero(R, rows, cols, scale, layout,
                                                            seed):
    # numpy forms W W^T symmetric to the bit, so gram keeps the bits of the
    # frozen mirrored gram without mirroring, and its zeros are +0.0; at
    # |scale| past about 154 the products overflow or underflow
    rng = np.random.default_rng(seed)
    W = _stack((rows, cols), R, rng) * 10.0 ** scale
    W[rng.random(R) < 0.2] = 0.0
    W[:, rng.integers(rows)] = 0.0
    W[:, rng.integers(rows)] = -0.0
    W = _laid_out(W, layout)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for w in (W, W[0]):
            g = gram(w)
            np.testing.assert_array_equal(_bits(g), _bits(reference.gram(w)))
            assert not np.signbit(g[g == 0.0]).any()


@pytest.mark.parametrize("kind", ["sigmoid", "tanh", "relu", "linear"])
def test_slope_of_the_value_is_the_frozen_derivative(kind):
    # slope(value(v)) performs the ops deriv(v) performed
    v = _values(np.random.default_rng(19), (64, 33))
    value, _ = _ACTIVATIONS[kind]
    with np.errstate(all="ignore"):
        got = Activation(kind).slope(value(v))
        want = reference.slope(kind, v)
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
        lambda: reference.backward(model, X, Y, loss_kind, regs, masks))
    assert _errors(got.failed) == _errors(failed)
    for a, b in zip(got.dW + got.db, dW + db):
        np.testing.assert_array_equal(_bits(a), _bits(b))
    assert warned == ref_warned
    # the forward pass hands backward each hidden layer's activations
    # before dropout and after it
    acts, ys, Yhat = forward_batch(model, X, masks)
    _, ref_acts, ref_ys, ref_Yhat = reference.forward_batch(model, X, masks)
    for a, y, ref_a, ref_y in zip(acts, ys, ref_acts, ref_ys):
        np.testing.assert_array_equal(_bits(a), _bits(ref_a))
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
       st.sampled_from([1e-300, 0.5, 2.0]))
@settings(max_examples=100, deadline=None)
def test_penalty_gradient_edge_cases_keep_the_frozen_outcomes(W, p, poison, c0):
    # each member's bits, error type and text, and the warnings raised;
    # a member may hold a non-finite entry, and member 0 a C so small that
    # its gradient underflows
    W = W.copy()
    for r, which in enumerate(poison[:len(W)]):
        if which:
            W[r, r % W.shape[1], 0] = EDGE_POISON[which - 1]
    C = np.full(len(W), 0.5)
    C[0] = c0
    (grad, failed), warned = _warned(lambda: eigen_decay_gradient(W, C, p))
    (want, want_failed), want_warned = _warned(lambda: reference.power_gradient(W, C, p))
    assert _errors(failed) == _errors(want_failed)
    np.testing.assert_array_equal(_bits(grad), _bits(want))
    assert warned == want_warned
    assert all(message.startswith("eigenvalue penalty gradient treated as zero")
               for _, message in warned)


def test_weights_whose_squares_underflow_are_not_the_zero_matrix():
    # the gram of these weights is zero, but W is not: the iterate hits
    # the zero vector, and the member fails as the penalty value does
    W = np.stack([np.full((2, 3), 1e-170), np.zeros((2, 3)), np.eye(2, 3)])
    C = np.full(3, 0.5)
    _, failed = _assert_gradient_matches_the_reference(W, C, 9)
    assert _errors(failed) == {0: (DegenerateIterateError, DEGENERATE_START)}
    _, error = _member_gradient(W, C, 9, 0)
    assert (type(error), str(error)) == (DegenerateIterateError, DEGENERATE_START)


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_sgd_steps_keep_the_frozen_update(momentum):
    ds = gen_two_gaussians(40, centers=((-1.0, 0.0), (1.0, 0.0)), sigma=0.7, seed=5)
    cfg = TrainConfig(learning_rate=0.3, batch_size=16, max_epochs=3, seed=2,
                      momentum=momentum)
    reg = RegularizerSpec((LayerPenalty("eigen_decay", 0.01), LayerPenalty("eigen_decay", 0.02),
                           LayerPenalty("l2", 1e-3)), (0.2, 0.0))
    model = init_mlp([2, 8, 6, 2], ["sigmoid", "tanh"], seed=4)
    want = reference.sgd(model, ds, "mse", reg, cfg)
    sgd_train(model, ds, "mse", reg, cfg)
    for got, w in zip(model_params(model), want):
        np.testing.assert_array_equal(_bits(got), _bits(w))


# +-0, +-inf, quiet nans with set payloads of both signs and a signaling
# one, subnormals, and the edges of exp's range
KERNEL_SPECIALS = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
     36.7, -36.7, 710.0, -710.0, 745.0, -745.0],
    np.array([0x7FF8000000000123, 0xFFF8000000000ABC, 0x7FF0000000000001],
             dtype=np.uint64).view(np.float64),
])


def _kernel_inputs(shape, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    flat = v.reshape(-1)
    flat[:len(KERNEL_SPECIALS)] = KERNEL_SPECIALS[:flat.size]
    spots = rng.integers(0, flat.size, max(1, flat.size // 8))
    flat[spots] = rng.choice(KERNEL_SPECIALS, len(spots))
    return v


@pytest.mark.parametrize("shape", [(5, 8), (25, 16, 8), (25, 160, 8), (1, 10000, 128)])
@pytest.mark.parametrize("kind", ["sigmoid", "tanh", "relu", "linear"])
def test_in_place_kernels_keep_the_frozen_bits(shape, kind):
    v = _kernel_inputs(shape, len(shape) + shape[-1])
    before = v.copy()
    want, want_warned = _warned(lambda: reference.activation(kind, v))
    kernel = _ACTIVATIONS[kind][0]
    buf = v.copy()
    for got, warned in (_warned(lambda: kernel(v)), _warned(lambda: kernel(buf, out=buf))):
        np.testing.assert_array_equal(_bits(got), _bits(want))
        assert warned == want_warned
    np.testing.assert_array_equal(_bits(v), _bits(before))  # without out=, a new array
    if kind == "relu":
        # the slope of any value, nan and -0.0 included
        for y in (v, want):
            np.testing.assert_array_equal(_bits(_relu_slope(y)),
                                          _bits(reference.slope("relu", y)))


@pytest.mark.parametrize("R", [1, 2, 7, 25])
@pytest.mark.parametrize("kind", ["sigmoid", "tanh", "relu", "linear"])
@pytest.mark.parametrize("dropout", [False, True])
def test_forward_batch_keeps_the_frozen_bits_and_inputs(R, kind, dropout):
    rng = np.random.default_rng(R * 8 + len(kind) + dropout)
    kinds = [kind, "sigmoid" if kind != "sigmoid" else "relu"]
    model = _random_stack(R, [3, 8, 5, 2], kinds, rng)
    X = _kernel_inputs((R, 16, 3), R) if R % 2 else rng.uniform(-2.0, 2.0, (R, 16, 3))
    masks = None
    if dropout:
        # the first layer drops, the second does not
        masks = [np.where(rng.random((R, 16, 8)) < 0.25, 0.0, 1.0 / 0.75), None]
    X_before = X.copy()
    masks_before = None if masks is None else masks[0].copy()
    with np.errstate(all="ignore"):
        got = forward_batch(model, X, masks)
        want = reference.forward_batch(model, X, masks)[1:]
        alone = [forward_batch(_with_params(model, [p[r] for p in model_params(model)]),
                               X[r], None if masks is None else [masks[0][r], None])
                 for r in range(R)]
    for a, b in zip(got[0] + got[1] + [got[2]], want[0] + want[1] + [want[2]]):
        np.testing.assert_array_equal(_bits(a), _bits(b))
    # each member's slice has the bits of the 2-D pass
    for r, (acts, ys, Yhat) in enumerate(alone):
        for a, b in zip(acts + ys + [Yhat], [x[r] for x in got[0] + got[1] + [got[2]]]):
            np.testing.assert_array_equal(_bits(a), _bits(b))
    np.testing.assert_array_equal(_bits(X), _bits(X_before))
    if dropout:
        np.testing.assert_array_equal(_bits(masks[0]), _bits(masks_before))
        assert got[0][0] is not got[1][0]
