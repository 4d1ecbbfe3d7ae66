"""Per-layer timing of povmforge, wrapped from outside the package.

:class:`Tracer` replaces each listed public function wherever a povmforge
module binds its name (for ``Povm``, the class's ``__init__``), so calls
made inside the package are caught as well as the benchmark's own. When
disabled, a wrapper only forwards the call.

For each wrapped function it keeps ``calls``, ``s`` (seconds inside) and
``self_s`` (seconds minus time inside other wrapped functions), and a few
counts computed from call arguments and results.
"""

import functools
import importlib
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = {
    "linalg": ["haar_unitary", "op_norm"],
    "povm": ["Povm", "check_unitary", "povm_distance", "distance_bounds",
             "observable_from_unitary"],
    "detector": ["program", "estimate_accuracy", "controlled_unitary_detector"],
    "su2": ["fiurasek_detector", "symmetric_projector", "fiurasek_program",
            "covariant_qubit_detector", "coupling_isometry", "irrep_matrix",
            "rotated_highest_weight"],
    "unet": ["build_net", "certify_coverage", "net_detector"],
}


def held_bytes(obj, depth=4, seen=None):
    """Bytes of the numpy arrays an object holds, through lists and attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen or depth < 0:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(held_bytes(x, depth - 1, seen) for x in obj)
    if hasattr(obj, "__dict__") and not isinstance(obj, type):
        return sum(held_bytes(x, depth - 1, seen) for x in vars(obj).values())
    return 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Computed counts: (metric, unit, better, update(totals, args, kwargs, result)).
def _povm_bytes(tot, args, kwargs, out):
    tot["povm.Povm.bytes"] += held_bytes(args[0])


def _sign_vectors(tot, args, kwargs, out):
    tot["povm.povm_distance.sign_vectors"] += 2 ** (len(args[0]) - 1)


def _program_bytes(tot, args, kwargs, out):
    tot["detector.program.bytes"] += held_bytes(_arg(args, kwargs, 0, "f")) + held_bytes(
        _arg(args, kwargs, 1, "sigma")
    )


def _build_net(tot, args, kwargs, out):
    tot["unet.build_net.candidates"] += out.candidates_tested
    tot["unet.build_net.centres"] += len(out)


def _certify(tot, args, kwargs, out):
    samples = _arg(args, kwargs, 1, "samples")
    tot["unet.certify_coverage.samples"] += samples
    tot["unet.certify_coverage.hits"] += round(out * samples)


COUNTERS = {
    "povm.Povm": _povm_bytes,
    "povm.povm_distance": _sign_vectors,
    "detector.program": _program_bytes,
    "unet.build_net": _build_net,
    "unet.certify_coverage": _certify,
}

COMPUTED = [
    ("povm.Povm.bytes", "B", "lower"),
    ("povm.povm_distance.sign_vectors", "count", "lower"),
    ("detector.program.bytes", "B", "lower"),
    ("unet.build_net.candidates", "count", "lower"),
    ("unet.build_net.centres", "count", "lower"),
    ("unet.build_net.accept_ratio", "ratio", "higher"),
    ("unet.certify_coverage.samples", "count", "lower"),
    ("unet.certify_coverage.hit_ratio", "ratio", "higher"),
]


def metric_names():
    """Every per-layer metric as (name, unit, better), in a fixed order."""
    out = []
    for module, names in LAYERS.items():
        for fn in names:
            out.append((f"{module}.{fn}.calls", "count", "lower"))
            out.append((f"{module}.{fn}.s", "s", "lower"))
            out.append((f"{module}.{fn}.self_s", "s", "lower"))
    return out + COMPUTED + [("trace.overhead_s", "s", "lower")]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.totals = {name: 0 for name, _, _ in metric_names()}
        self.totals["unet.certify_coverage.hits"] = 0
        self._stack = []  # per open call: seconds spent in wrapped callees
        self._restore = []

    def _wrap(self, key, fn):
        count = COUNTERS.get(key)
        calls, total, own = f"{key}.calls", f"{key}.s", f"{key}.self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                tot = self.totals
                tot[calls] += 1
                tot[total] += dt
                tot[own] += dt - inner
            if count is not None:
                count(self.totals, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        """Wrap every listed function in every loaded povmforge module."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "povmforge" or name.startswith("povmforge."))]
        for module, names in LAYERS.items():
            home = importlib.import_module(f"povmforge.{module}")
            for fn_name in names:
                key = f"{module}.{fn_name}"
                original = getattr(home, fn_name)
                if isinstance(original, type):
                    init = original.__init__
                    original.__init__ = self._wrap(key, init)
                    self._restore.append((original, "__init__", init))
                    continue
                wrapper = self._wrap(key, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, original))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    @contextmanager
    def paused(self):
        """Run the body untraced, e.g. the benchmark's own output checks."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def per_round(self, rounds):
        """Totals divided by the number of traced rounds; ratios of totals."""
        tot = self.totals
        out = {name: tot[name] / rounds for name, _, _ in metric_names()}
        out["unet.build_net.accept_ratio"] = (
            tot["unet.build_net.centres"] / tot["unet.build_net.candidates"]
            if tot["unet.build_net.candidates"] else 0.0
        )
        out["unet.certify_coverage.hit_ratio"] = (
            tot["unet.certify_coverage.hits"] / tot["unet.certify_coverage.samples"]
            if tot["unet.certify_coverage.samples"] else 0.0
        )
        return out
