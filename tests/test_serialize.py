import numpy as np
import pytest

from povmforge.detector import controlled_unitary_detector
from povmforge.linalg import CapacityError, Rng, haar_unitary
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
from povmforge.unet import NET_DIM_CAP, UnitaryNet, build_net


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


def test_matrix_entries_that_are_not_numbers_are_malformed():
    for re in (["0.5", 0.0, 0.0, 0.5], [10**400, 0, 0, 0], [None] * 4, [{}] * 4):
        with pytest.raises(ValueError, match="malformed matrix JSON"):
            matrix_from_json({"rows": 2, "cols": 2, "re": re, "im": [0.0] * 4})
    # The complex read keeps every bit of the float one, signed zeros too.
    re, im = [-0.0, 2.5, 1e-300, 0.0], [1.0, -0.0, 0.0, -7.0]
    want = (np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)).reshape(2, 2)
    got = matrix_from_json({"rows": 2, "cols": 2, "re": re, "im": im})
    assert got.dtype == complex and got.tobytes() == want.tobytes()


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


def saved_and_read(net, tmp_path):
    path = tmp_path / "net.json"
    save_json(net_to_json(net), path)
    return net_from_json(load_json(path))


@pytest.mark.parametrize("make", [
    # numpy integer sizes: save_json could not write the net's dim and count.
    lambda: build_net(np.int64(2), 0.5, np.int64(40), Rng(8)),
    lambda: build_net(3, 1.2, 30, Rng(9)),
    # A JSON integer radius reads as a float.
    lambda: net_from_json({"dim": 2, "radius": 1, "seed": 5, "centers": [matrix_to_json(np.eye(2))]}),
    lambda: UnitaryNet(dim=np.int64(3), radius=0.5, centers=[], seed=np.uint64(2)),
], ids=["numpy-sizes", "qutrit", "integer-radius", "empty"])
def test_every_net_that_constructs_survives_a_file_round_trip(make, tmp_path):
    net = make()
    back = saved_and_read(net, tmp_path)
    for field in ("dim", "radius", "seed", "candidates_tested"):
        got, want = getattr(back, field), getattr(net, field)
        assert type(got) is type(want) and got == want, field
    assert back.centers.shape == net.centers.shape
    assert back.centers.tobytes() == net.centers.tobytes()


def test_net_centers_of_two_sizes_are_malformed():
    obj = net_to_json(build_net(2, 0.8, 20, Rng(4)))
    centers = obj["centers"][:1] + [matrix_to_json(np.eye(3))]
    with pytest.raises(ValueError, match="malformed net JSON"):
        net_from_json({**obj, "centers": centers})


def test_net_past_the_dimension_cap_is_refused():
    n = NET_DIM_CAP + 1
    obj = {"dim": n, "radius": 0.5, "seed": 1, "centers": []}
    with pytest.raises(CapacityError, match="net cap"):
        net_from_json(obj)


def test_net_rejects_malformed():
    with pytest.raises(ValueError, match="centers"):
        net_from_json({"dim": 2, "radius": 0.5, "seed": 1, "centers": 5})
    obj = net_to_json(build_net(2, 0.8, 20, Rng(4)))
    for radius in (float("nan"), float("inf"), float("-inf"), 0, -1.0):
        with pytest.raises(ValueError, match="radius"):
            net_from_json({**obj, "radius": radius})


@pytest.mark.parametrize(
    "radius",
    ["0.8", True, 10 ** 400, float("nan"), -1.0],
    ids=["string", "bool", "1e400", "nan", "negative"],
)
def test_net_radius_must_be_a_json_number(radius):
    # A string or a boolean is no radius, and an integer past the largest
    # double is no finite one. A NaN or negative radius is refused by
    # UnitaryNet, and the reader relabels its error too.
    obj = net_to_json(build_net(2, 0.8, 20, Rng(4)))
    with pytest.raises(ValueError, match="malformed net JSON"):
        net_from_json({**obj, "radius": radius})


# Each reader with a valid object for it.
READERS = {
    "matrix": (matrix_from_json, lambda: matrix_to_json(np.eye(2))),
    "POVM": (povm_from_json, lambda: povm_to_json(observable_from_unitary(np.eye(2)))),
    "detector": (
        detector_from_json, lambda: detector_to_json(controlled_unitary_detector([np.eye(2)]))
    ),
    "net": (net_from_json, lambda: net_to_json(build_net(2, 0.8, 20, Rng(4)))),
}


@pytest.mark.parametrize("kind,field,value", [
    ("matrix", "rows", 2.7),
    ("matrix", "cols", 2.0),
    ("matrix", "rows", "2"),
    ("POVM", "dim", 2.9),
    ("POVM", "dim", True),
    ("detector", "sys_dim", 1.5),
    ("detector", "anc_dim", 1.0),
    ("net", "dim", 2.5),
    ("net", "candidates_tested", 1.9),
    ("net", "seed", 1.0),
    ("net", "seed", -1),
    ("net", "seed", 2 ** 64),
    # Refused by the constructors, or by numpy, past the reader's own checks.
    pytest.param("matrix", "re", [10 ** 400, 0.0, 0.0, 1.0], id="matrix-re-1e400"),
    pytest.param("detector", "joint", 5, id="detector-joint-5"),
    pytest.param("net", "centers", [matrix_to_json(np.ones((2, 2)))], id="net-centers-non-unitary"),
])
def test_readers_refuse_non_integer_sizes_and_out_of_range_seeds(kind, field, value):
    read, valid = READERS[kind]
    obj = valid()
    read(obj)
    with pytest.raises(ValueError, match=f"malformed {kind} JSON"):
        read({**obj, field: value})


def test_file_round_trip(tmp_path):
    p = observable_from_unitary(haar_unitary(2, Rng(5)))
    path = tmp_path / "povm.json"
    save_json(povm_to_json(p), path)
    back = povm_from_json(load_json(path))
    for got, want in zip(back.effects, p.effects):
        assert np.abs(got - want).max() <= 1e-15
