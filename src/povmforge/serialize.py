"""JSON interchange for matrices, POVMs, detectors and nets.

Matrices travel as {"rows", "cols", "re", "im"} with row-major entry lists.
Readers validate shapes and lengths before handing data to the numeric
constructors, which re-run their own invariants.
"""

import json

import numpy as np

from .detector import Detector
from .linalg import as_matrix
from .povm import Povm
from .unet import UnitaryNet


def matrix_to_json(m):
    a = as_matrix(m)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "re": a.real.reshape(-1).tolist(),
        "im": a.imag.reshape(-1).tolist(),
    }


def matrix_from_json(obj):
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise ValueError(
            f"entry count mismatch: expected {rows * cols} entries, "
            f"got re shape {re.shape} and im shape {im.shape}"
        )
    return as_matrix((re + 1j * im).reshape(rows, cols))


def povm_to_json(p):
    return {"dim": p.dim, "effects": [matrix_to_json(e) for e in p.effects]}


def povm_from_json(obj):
    try:
        dim = int(obj["dim"])
        effects = obj["effects"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed POVM JSON: {exc}") from exc
    if not isinstance(effects, list):
        raise ValueError("malformed POVM JSON: effects must be a list")
    mats = [matrix_from_json(e) for e in effects]
    p = Povm(mats)
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
    try:
        sys_dim = int(obj["sys_dim"])
        anc_dim = int(obj["anc_dim"])
        joint = obj["joint"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed detector JSON: {exc}") from exc
    return Detector(sys_dim, anc_dim, povm_from_json(joint))


def net_to_json(net):
    return {
        "dim": net.dim,
        "radius": net.radius,
        "seed": net.seed,
        "candidates_tested": net.candidates_tested,
        "centers": [matrix_to_json(c) for c in net.centers],
    }


def net_from_json(obj):
    try:
        dim = int(obj["dim"])
        radius = float(obj["radius"])
        seed = int(obj["seed"])
        # Files written before the count was stored read as 0, the default.
        tested = int(obj.get("candidates_tested", 0))
        centers = obj["centers"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed net JSON: {exc}") from exc
    if not isinstance(centers, list):
        raise ValueError("malformed net JSON: centers must be a list")
    if tested < 0:
        raise ValueError("malformed net JSON: candidates_tested must be nonnegative")
    mats = [matrix_from_json(c) for c in centers]
    # An empty list reads as the empty (0, dim, dim) stack UnitaryNet accepts.
    mats = np.array(mats) if mats else np.zeros((0, dim, dim), dtype=complex)
    return UnitaryNet(
        dim=dim, radius=radius, centers=mats, seed=seed, candidates_tested=tested
    )


def save_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
