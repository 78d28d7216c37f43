"""The epoch end of the stacked SGD loop: every member's history, pinned by
hash.

The equivalence tests in test_grid_stacked.py compare grid_search against
sgd_train, and both run train._sgd_stack, so a change in the bits of the
epoch-end lambda or objective would pass them. The hashes below were taken
from the loop that evaluated each member's epoch end on its own, with 2-D
power_dominant_eigen, forward_batch and loss_batch calls. Member 6's
hashes were retaken when an overflowing gram began to fail the penalty
gradient at once: that member now ends on the finite weights its last
gradient was formed at, not on the nan weights one step later."""

import hashlib
import json
import warnings

import numpy as np
import pytest

from eigendecay import train
from eigendecay.data import gen_two_gaussians
from eigendecay.model import init_mlp, model_params
from eigendecay.objectives import LayerPenalty, RegularizerSpec
from eigendecay.train import DivergenceError, EarlyStopping, TrainConfig

N_ROWS = 90


def _regs():
    return [
        RegularizerSpec((LayerPenalty("eigen_decay", 0.02),
                         LayerPenalty("eigen_decay", 0.01, 5)), (0.2,)),
        RegularizerSpec((LayerPenalty("l1", 1e-3), LayerPenalty("l2", 2e-3)), (0.0,)),
        RegularizerSpec((LayerPenalty("eigen_decay", 0.0), LayerPenalty("l2", 1e-3)),
                        (0.1,)),
        # members 3 and 4: the output rows are w and -w, and mse and hinge
        # keep them so, so the all-ones start lies in the kernel of W W^T and
        # the unpenalized (or C = 0) output layer records lambda = nan
        RegularizerSpec((LayerPenalty("l2", 1e-3), LayerPenalty()), (0.0,)),
        RegularizerSpec((LayerPenalty("eigen_decay", 0.05, 3),
                         LayerPenalty("eigen_decay", 0.0)), (0.0,)),
        RegularizerSpec((LayerPenalty(), LayerPenalty("l1", 1e-3)), (0.3,)),
        # diverges in its first epoch
        RegularizerSpec((LayerPenalty("eigen_decay", 1e200), LayerPenalty()), (0.0,)),
    ]


def _members(ds, cfg):
    folds = np.array_split(np.random.default_rng(0).permutation(N_ROWS), 3)
    members = []
    for j, reg in enumerate(_regs()):
        model = init_mlp([2, 6, 2], "tanh", seed=j)
        if j in (3, 4):
            model.output.weights[1] = -model.output.weights[0]
        rows = np.setdiff1d(np.arange(N_ROWS), folds[j % 3])
        members.append(train._member(model, ds, rows, reg, cfg))
    return members


def _digest(member, result):
    if isinstance(result, DivergenceError):
        doc = {"epoch": result.epoch, "error": str(result)}
    else:
        doc = {"best_epoch": result.best_epoch, "records": result.records()}
    h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    for p in model_params(member.model):
        h.update(p.tobytes())
    return h.hexdigest()


GOLDEN = {
    "mse": [
        "7d0304ce227e3c64d959a8e1497ac8099d68d5c9d85c752de70cb8aa7fe9a463",
        "fb6540992966774c80fd417f49d29be383475108032b762b31a8f51ad1c3b341",
        "89639e7638c327a68004c96c4c72884c9bd6e4bc968b89097e06148a5c0615f2",
        "cc77054e48c44d52b89b9ae294e84639e79ddcbddbee306aea5727355986a3de",
        "9fa568d63af73af3b6a4d78fdd6d44dfbbc2e263e4708fdfcd1320b732a7eb96",
        "0a6cbe6d0662fcae84a6bde6e4b08db21a6b55b4cb94dd5f3d0e98b1ca49a916",
        "dc5bed17efd0a8ab7d697c3b9e0337350bf42e5bba17ad8af60fcb41499391d5",
    ],
    "categorical_cross_entropy": [
        "25c87dbe2756c878d03006c6e1779c8df2c6ec1244665c9ddd4de6bdcaf49f32",
        "434ee993b12a67416201b83326d551ba557c92e8185d6960bd71110b330db4f4",
        "b2eb623cd5713e45621877dc3bd8a80be2ac7010843c10ddb9a74e754d617f1b",
        "f2d4e578bba8e697f5d9db0b60cb3f8731df297180874237fcbeed0eef7c106d",
        "b5a01241ae2c6e437537c5a9e2141777436da52c431a4f967b753c150537cbbb",
        "5fb0db52f784331bcdd308b25e506d5276f9d10fd8b9218a2da844a8f415fadc",
        "daa4b9127eecad7281bd0cc887c1355c4d7fce634a2a87919776d62ee2836f70",
    ],
    "multiclass_hinge": [
        "19c8d84ae3ead34cc21a7a7e11121b9749ddd65a1b7f9347495c33b1794165bf",
        "4bee3180c151bdd16572accbcbe76d19ff42c902dd715bed33aa803dcdd1457a",
        "ad47b1dc299e41434666afd95dda964cd0a4cd0e1c429d49ac07960f4b6d1781",
        "02b980b9f771071dfdcb70e9fe3d531de68e809c1dbcfa6a207831ece81f128a",
        "c504fecfcad3a86a6bd8e5d1350fdc4855adbbf787ee864b1f165fc8f8cf3230",
        "239e5bffee12306397a9f461e1435c1928bd809bbb3cb329140448044ce2fd9b",
        "533bf592e8ecf06151f8210988a2c423d90e55c4151b75f279e26cb6add5184f",
    ],
}


@pytest.mark.parametrize("loss_kind, early_stopping, momentum", [
    ("mse", False, 0.0),
    ("categorical_cross_entropy", True, 0.5),
    ("multiclass_hinge", True, 0.0),
])
def test_every_member_history_is_pinned(loss_kind, early_stopping, momentum):
    ds = gen_two_gaussians(N_ROWS // 2, centers=((-1.0, 0.2), (1.1, -0.3)),
                           sigma=0.8, seed=5)
    cfg = TrainConfig(learning_rate=0.3, batch_size=8, max_epochs=12, seed=3,
                      momentum=momentum,
                      early_stopping=EarlyStopping(early_stopping, patience=2,
                                                   validation_fraction=0.25))
    members = _members(ds, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        results = train._sgd_stack(members, ds, loss_kind, cfg)
    assert isinstance(results[6], DivergenceError)
    assert all(np.isfinite(p).all() for p in model_params(members[6].model))
    if loss_kind != "categorical_cross_entropy":
        for j in (3, 4):
            assert all(np.isnan(r.lambda_dom[1]) for r in results[j].epochs)
    if early_stopping:
        assert len({len(r.epochs) for r in results[:6]}) > 2
    assert [_digest(m, r) for m, r in zip(members, results)] == GOLDEN[loss_kind]
