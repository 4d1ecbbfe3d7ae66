"""JSON interchange for matrices and POVMs.

Matrices travel as {"rows", "cols", "re", "im"} with row-major entry lists,
and a POVM as {"dim", "effects"} with one matrix per effect. A missing key
or a refused field reads as malformed JSON of its kind.
"""

import json
from contextlib import contextmanager

from .linalg import as_array, as_int, as_matrix
from .povm import Povm


@contextmanager
def _malformed(kind):
    """Relabel a missing key or a refused field as malformed `kind` JSON."""
    try:
        yield
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
        # JSON true is no number, though numpy reads it as 1.
        if any(isinstance(x, bool) for x in (*obj["re"], *obj["im"])):
            raise ValueError("entries must be numbers, got true or false")
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise ValueError(
            f"entry count mismatch: expected {rows * cols} entries, "
            f"got re shape {re.shape} and im shape {im.shape}"
        )
    return (re + 1j * im).reshape(rows, cols)


def povm_to_json(p):
    return {"dim": p.dim, "effects": [matrix_to_json(e) for e in p.effects]}


def povm_from_json(obj):
    with _malformed("POVM"):
        dim = as_int(obj["dim"], "dim")
        effects = obj["effects"]
        if not isinstance(effects, list):
            raise ValueError("effects must be a list")
        p = Povm([matrix_from_json(m) for m in effects])
    if p.dim != dim:
        raise ValueError(f"declared dim {dim} does not match effects ({p.dim})")
    return p


def save_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
