import numpy as np
import pytest

from povmforge.detector import controlled_unitary_detector
from povmforge.linalg import Rng, haar_unitary
from povmforge.povm import observable_from_unitary
from povmforge.serialize import (
    detector_from_json,
    detector_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    net_from_json,
    net_to_json,
    povm_from_json,
    povm_to_json,
    save_json,
)
from povmforge.unet import UnitaryNet, build_net


def test_matrix_round_trip():
    rng = Rng(1).generator
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    obj = matrix_to_json(m)
    assert obj["rows"] == 3 and obj["cols"] == 4
    assert len(obj["re"]) == 12
    back = matrix_from_json(obj)
    assert np.abs(back - m).max() <= 1e-15


def test_matrix_rejects_length_mismatch():
    obj = {"rows": 2, "cols": 2, "re": [1.0, 0.0, 0.0], "im": [0.0] * 4}
    with pytest.raises(ValueError, match="entry count"):
        matrix_from_json(obj)


def test_matrix_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 0, "cols": 1, "re": [], "im": []})


def test_povm_round_trip():
    p = observable_from_unitary(haar_unitary(3, Rng(2)))
    back = povm_from_json(povm_to_json(p))
    assert back.dim == 3
    for got, want in zip(back.effects, p.effects):
        assert np.abs(got - want).max() <= 1e-15


def test_povm_rejects_dim_mismatch():
    p = observable_from_unitary(np.eye(2))
    obj = povm_to_json(p)
    obj["dim"] = 3
    with pytest.raises(ValueError, match="declared dim"):
        povm_from_json(obj)


def test_povm_rejects_invalid_effects():
    obj = {
        "dim": 2,
        "effects": [matrix_to_json(np.diag([0.5, 0.5]))],  # incomplete sum
    }
    with pytest.raises(ValueError):
        povm_from_json(obj)


def test_detector_round_trip():
    det = controlled_unitary_detector([haar_unitary(2, Rng(3)) for _ in range(2)])
    back = detector_from_json(detector_to_json(det))
    assert back.sys_dim == 2 and back.anc_dim == 2
    for got, want in zip(back.joint.effects, det.joint.effects):
        assert np.abs(got - want).max() <= 1e-15


def test_net_round_trip():
    net = build_net(2, 0.8, 100, Rng(4))
    back = net_from_json(net_to_json(net))
    assert back.dim == net.dim
    assert back.radius == net.radius
    assert back.seed == net.seed
    assert back.candidates_tested == net.candidates_tested > 0
    assert np.abs(back.centers - net.centers).max() <= 1e-15
    # A file written without the count still loads, with count 0.
    obj = net_to_json(net)
    del obj["candidates_tested"]
    assert net_from_json(obj).candidates_tested == 0
    with pytest.raises(ValueError, match="candidates_tested"):
        net_from_json({**net_to_json(net), "candidates_tested": -1})


def test_empty_net_round_trip():
    for dim in (2, 3):
        net = UnitaryNet(dim=dim, radius=0.5, centers=np.zeros((0, dim, dim)), seed=1)
        back = net_from_json(net_to_json(net))
        assert (back.dim, back.radius, back.seed) == (dim, 0.5, 1)
        assert back.centers.shape == (0, dim, dim) and len(back) == 0


def test_net_rejects_malformed():
    with pytest.raises(ValueError, match="centers"):
        net_from_json({"dim": 2, "radius": 0.5, "seed": 1, "centers": 5})
    obj = net_to_json(build_net(2, 0.8, 20, Rng(4)))
    for radius in (float("nan"), float("inf"), float("-inf"), 0, -1.0):
        with pytest.raises(ValueError, match="radius"):
            net_from_json({**obj, "radius": radius})


def test_file_round_trip(tmp_path):
    p = observable_from_unitary(haar_unitary(2, Rng(5)))
    path = tmp_path / "povm.json"
    save_json(povm_to_json(p), path)
    back = povm_from_json(load_json(path))
    for got, want in zip(back.effects, p.effects):
        assert np.abs(got - want).max() <= 1e-15
