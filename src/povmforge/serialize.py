"""JSON interchange for matrices, POVMs, detectors and nets.

Matrices travel as {"rows", "cols", "re", "im"} with row-major entry lists.
The detector and net readers only look up keys and hand the fields to
`Detector` and `UnitaryNet`, whose constructors own every rule on them. A
missing key or a refused field reads as malformed JSON of its kind, and
CapacityError keeps its type.
"""

import json
from contextlib import contextmanager

from .detector import Detector
from .linalg import CapacityError, as_array, as_int, as_matrix
from .povm import Povm
from .unet import UnitaryNet


@contextmanager
def _malformed(kind):
    """Relabel a missing key or a refused field as malformed `kind` JSON."""
    try:
        yield
    except CapacityError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind} JSON: {exc}") from exc


def matrix_to_json(m):
    a = as_matrix(m)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "re": a.real.reshape(-1).tolist(),
        "im": a.imag.reshape(-1).tolist(),
    }


def matrix_from_json(obj):
    with _malformed("matrix"):
        rows, cols = as_int(obj["rows"], "rows"), as_int(obj["cols"], "cols")
        re, im = as_array(obj["re"], 1), as_array(obj["im"], 1)
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise ValueError(
            f"entry count mismatch: expected {rows * cols} entries, "
            f"got re shape {re.shape} and im shape {im.shape}"
        )
    return (re + 1j * im).reshape(rows, cols)


def _matrices(obj, key):
    """The matrices listed under `key` in `obj`."""
    items = obj[key]
    if not isinstance(items, list):
        raise ValueError(f"{key} must be a list")
    return [matrix_from_json(m) for m in items]


def povm_to_json(p):
    return {"dim": p.dim, "effects": [matrix_to_json(e) for e in p.effects]}


def povm_from_json(obj):
    with _malformed("POVM"):
        dim = as_int(obj["dim"], "dim")
        p = Povm(_matrices(obj, "effects"))
    if p.dim != dim:
        raise ValueError(f"declared dim {dim} does not match effects ({p.dim})")
    return p


def detector_to_json(f):
    return {
        "sys_dim": f.sys_dim,
        "anc_dim": f.anc_dim,
        "joint": povm_to_json(f.joint),
    }


def detector_from_json(obj):
    with _malformed("detector"):
        return Detector(obj["sys_dim"], obj["anc_dim"], povm_from_json(obj["joint"]))


def net_to_json(net):
    return {
        "dim": net.dim,
        "radius": net.radius,
        "seed": net.seed,
        "candidates_tested": net.candidates_tested,
        "centers": [matrix_to_json(c) for c in net.centers],
    }


def net_from_json(obj):
    with _malformed("net"):
        return UnitaryNet(
            dim=obj["dim"],
            radius=obj["radius"],
            centers=_matrices(obj, "centers"),
            seed=obj["seed"],
            # Files written before the count was stored read as 0, the default.
            candidates_tested=obj.get("candidates_tested", 0),
        )


def save_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
