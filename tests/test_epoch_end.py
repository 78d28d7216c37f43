"""The epoch end of the stacked SGD loop: every member's history, pinned by
hash.

The equivalence tests in test_grid_stacked.py compare grid_search against
sgd_train, and both run train._sgd_stack, so a change in the bits of the
epoch-end lambda or objective would pass them. The hashes below were taken
from the loop that evaluated each member's epoch end on its own, with 2-D
power_dominant_eigen, forward_batch and loss_batch calls."""

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


def _members(ds, loss_kind, cfg):
    folds = np.array_split(np.random.default_rng(0).permutation(N_ROWS), 3)
    members = []
    for j, reg in enumerate(_regs()):
        model = init_mlp([2, 6, 2], "tanh", seed=j)
        if j in (3, 4):
            model.output.weights[1] = -model.output.weights[0]
        rows = np.setdiff1d(np.arange(N_ROWS), folds[j % 3])
        members.append(train._member(model, ds, rows, loss_kind, reg, cfg))
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
        "d6c08f43397724a499599b116a276b03a17fd14464495ecbc0227c609f152ccd",
        "fb6540992966774c80fd417f49d29be383475108032b762b31a8f51ad1c3b341",
        "89639e7638c327a68004c96c4c72884c9bd6e4bc968b89097e06148a5c0615f2",
        "cc77054e48c44d52b89b9ae294e84639e79ddcbddbee306aea5727355986a3de",
        "a2ebba3183294453c9b4675e7e4b566cbcbc5b4e6a66737ce3d0c8745c173fd3",
        "0a6cbe6d0662fcae84a6bde6e4b08db21a6b55b4cb94dd5f3d0e98b1ca49a916",
        "007ee163cfc8cd0f5013ab9c5dad2b1d907bbc88bee13a9bf1609257dc09260e",
    ],
    "categorical_cross_entropy": [
        "72b5400a97a7adf44419714a42cdf787217bc6a3ec338b71f33cf489081e77c8",
        "434ee993b12a67416201b83326d551ba557c92e8185d6960bd71110b330db4f4",
        "b2eb623cd5713e45621877dc3bd8a80be2ac7010843c10ddb9a74e754d617f1b",
        "f2d4e578bba8e697f5d9db0b60cb3f8731df297180874237fcbeed0eef7c106d",
        "950b0e558994e10d419ebfe41ca482a24131e8c4fbd42e5706a93f3531bf199b",
        "5fb0db52f784331bcdd308b25e506d5276f9d10fd8b9218a2da844a8f415fadc",
        "4671b646aa3b1022836c52b70f50ae12df518754f8c117f55c986ed8e6330779",
    ],
    "multiclass_hinge": [
        "8c1beb287884f555d053068c204f28016802daf9aed8821ab77f68e8f142fd30",
        "4bee3180c151bdd16572accbcbe76d19ff42c902dd715bed33aa803dcdd1457a",
        "ad47b1dc299e41434666afd95dda964cd0a4cd0e1c429d49ac07960f4b6d1781",
        "02b980b9f771071dfdcb70e9fe3d531de68e809c1dbcfa6a207831ece81f128a",
        "c3e07681cdb9a13aee786d26050a23ddd0aab4b881bef655e32fbfeb48cef520",
        "239e5bffee12306397a9f461e1435c1928bd809bbb3cb329140448044ce2fd9b",
        "34504f665cf7c18277d762d6cb3c114d22f6b82dfbbef13c154cc9c5271fc179",
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
    members = _members(ds, loss_kind, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        results = train._sgd_stack(members, ds, loss_kind, cfg)
    assert isinstance(results[6], DivergenceError)
    if loss_kind != "categorical_cross_entropy":
        for j in (3, 4):
            assert all(np.isnan(r.lambda_dom[1]) for r in results[j].epochs)
    if early_stopping:
        assert len({len(r.epochs) for r in results[:6]}) > 2
    assert [_digest(m, r) for m, r in zip(members, results)] == GOLDEN[loss_kind]
