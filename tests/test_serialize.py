import numpy as np
import pytest

from povmforge.linalg import Rng, haar_unitary
from povmforge.povm import Povm, observable_from_unitary
from povmforge.serialize import (
    load_json,
    matrix_from_json,
    matrix_to_json,
    povm_from_json,
    povm_to_json,
    save_json,
)


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
    # JSON true and false are no numbers either, though numpy reads them as 1 and 0.
    for re in (["0.5", 0.0, 0.0, 0.5], [10**400, 0, 0, 0], [None] * 4, [{}] * 4,
               [True, False, False, True], [True, 0.0, 0.0, 0.5]):
        with pytest.raises(ValueError, match="malformed matrix JSON"):
            matrix_from_json({"rows": 2, "cols": 2, "re": re, "im": [0.0] * 4})
    with pytest.raises(ValueError, match="malformed matrix JSON"):
        matrix_from_json({"rows": 2, "cols": 2, "re": [0.5, 0.0, 0.0, 0.5], "im": [False] * 4})
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


# Each reader with a valid object for it.
READERS = {
    "matrix": (matrix_from_json, lambda: matrix_to_json(np.eye(2))),
    "POVM": (povm_from_json, lambda: povm_to_json(observable_from_unitary(np.eye(2)))),
}


@pytest.mark.parametrize("kind,field,value", [
    ("matrix", "rows", 2.7),
    ("matrix", "cols", 2.0),
    ("matrix", "rows", "2"),
    ("POVM", "dim", 2.9),
    ("POVM", "dim", True),
    # Refused by the constructors, or by numpy, past the reader's own checks.
    pytest.param("matrix", "re", [10 ** 400, 0.0, 0.0, 1.0], id="matrix-re-1e400"),
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


def random_povm(dim, outcomes, rng):
    g = rng.generator
    parts = [a.conj().T @ a for a in g.standard_normal((outcomes, dim, dim))
             + 1j * g.standard_normal((outcomes, dim, dim))]
    vals, vecs = np.linalg.eigh(sum(parts))
    inv_sqrt = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    return Povm([inv_sqrt @ p @ inv_sqrt for p in parts])


@pytest.mark.parametrize("dim,outcomes", [(1, 1), (2, 2), (3, 5), (4, 20)])
def test_povm_file_round_trip_keeps_every_bit(dim, outcomes, tmp_path):
    # json writes each double as its shortest repr, which reads back to the
    # same double, so distance sees exactly the POVM that was saved.
    p = random_povm(dim, outcomes, Rng(10 * dim + outcomes))
    path = tmp_path / "povm.json"
    save_json(povm_to_json(p), path)
    back = povm_from_json(load_json(path))
    assert (back.dim, len(back)) == (dim, outcomes)
    assert back.effects.tobytes() == p.effects.tobytes()


I2 = matrix_to_json(np.eye(2) / 2)


@pytest.mark.parametrize("obj", [
    pytest.param([], id="not-an-object"),
    pytest.param({"effects": [I2, I2]}, id="no-dim"),
    pytest.param({"dim": 2}, id="no-effects"),
    pytest.param({"dim": 2, "effects": {"0": I2, "1": I2}}, id="effects-object"),
    pytest.param({"dim": 2, "effects": "I"}, id="effects-string"),
    pytest.param({"dim": 2, "effects": None}, id="effects-null"),
    pytest.param({"dim": 2, "effects": []}, id="effects-empty"),
    pytest.param({"dim": 2, "effects": [I2, matrix_to_json(np.eye(3) / 2)]}, id="two-sizes"),
    pytest.param({"dim": 2, "effects": [matrix_to_json(np.ones((2, 3)))]}, id="non-square"),
    pytest.param({"dim": 2, "effects": [I2, 5]}, id="effect-not-an-object"),
])
def test_povm_reader_refuses_malformed_files(obj):
    with pytest.raises(ValueError, match="malformed POVM JSON"):
        povm_from_json(obj)


@pytest.mark.parametrize("obj,match", [
    pytest.param(None, "malformed matrix JSON", id="null"),
    pytest.param({"rows": None, "cols": 1, "re": [1.0], "im": [0.0]},
                 "rows must be an integer", id="rows-null"),
    pytest.param({"rows": 1, "cols": 1, "re": [1.0]}, "malformed matrix JSON", id="no-im"),
    pytest.param({"rows": 1, "cols": 1, "re": 1.0, "im": [0.0]},
                 "malformed matrix JSON", id="re-scalar"),
    pytest.param({"rows": 2, "cols": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [0.0] * 4},
                 "expected a vector", id="re-nested"),
    pytest.param({"rows": -1, "cols": -1, "re": [1.0], "im": [0.0]},
                 "dimensions must be positive", id="rows-negative"),
])
def test_matrix_reader_refuses_malformed_files(obj, match):
    with pytest.raises(ValueError, match=match):
        matrix_from_json(obj)
