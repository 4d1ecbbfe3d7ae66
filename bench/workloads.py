"""The benchmark's three workloads.

A workload makes the inputs of one round from (seed, round) with numpy
alone, runs the round through povmforge's public API with every call into
the package timed, and checks the round's outputs with :mod:`checks`.

A round is one certified result: detector or net construction plus a
fixed number of unit operations. ``Round.op`` times one unit operation;
``Round.build`` times construction and other work that counts in the
round's time but is no unit operation. After each timed call the round
runs the host speed probe (``speed.py``), outside the timing.
"""

import math
import time

import numpy as np

import checks
import speed


def child_seed(seed, *path):
    """64-bit integer seed derived from the workload seed and a path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


def generator(seed, *path):
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


class Round:
    """Timings and failures of one round.

    Each timed call is followed by the speed probe of its kind (``speed.py``);
    ``norm_run_s`` and ``norm_op_s`` are the times divided by the slowdown
    that the probes of the same kind measured over the round.
    """

    def __init__(self, ops, probe_kind):
        self.ops = ops  # unit operations the round attempts
        self.probe_kind = probe_kind  # the kind of probe a call gets by default
        self.build_s = 0.0
        self.op_s = []
        self.calls = []  # (probe kind, seconds, is a unit operation)
        self.probes = {}  # probe kind -> [seconds, chunks]
        self.failed = 0
        self.errors = []

    @property
    def run_s(self):
        return self.build_s + sum(self.op_s)

    def slowdown(self, kind):
        return speed.slowdown(kind, *self.probes[kind])

    @property
    def norm_run_s(self):
        return sum(dt / self.slowdown(kind) for kind, dt, _ in self.calls)

    @property
    def norm_op_s(self):
        return [dt / self.slowdown(kind) for kind, dt, is_op in self.calls if is_op]

    def _timed(self, kind, dt, is_op):
        self.calls.append((kind, dt, is_op))
        seconds, chunks = speed.probe(kind, dt)
        total = self.probes.setdefault(kind, [0.0, 0])
        total[0] += seconds
        total[1] += chunks

    def build(self, fn, probe_kind=None):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        self.build_s += dt
        self._timed(probe_kind or self.probe_kind, dt, False)
        return out

    def op(self, fn):
        """Time one unit operation; a raised exception counts it as failed."""
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        self.op_s.append(dt)
        self._timed(self.probe_kind, dt, True)
        return out


class Su2Detectors:
    """Both SU(2) detector families: the exponential and the linear law.

    The Fiurasek detector at N = 10 copies (d = 2^N) carries the round; its
    targets are the unit operations. The covariant detector at 2j = 81
    (d = 2j + 1) is built from a cold Clebsch-Gordan cache and scored on its
    own targets in the same round, timed in the round but not as unit
    operations.
    """

    name = "su2-detectors"
    PROBE = "dense"
    N = 10
    TARGETS = 12
    TWICE_J = 81
    COVARIANT_TARGETS = 12

    def inputs(self, seed, r):
        g = generator(seed, r)
        t = self.COVARIANT_TARGETS
        return {
            "targets": [checks.haar_unitary(g, 2) for _ in range(self.TARGETS)],
            # Haar on SU(2): uniform alpha, uniform cos(beta), gamma over 4 pi.
            "angles": np.column_stack([
                g.uniform(0.0, 2 * math.pi, t),
                np.arccos(g.uniform(-1.0, 1.0, t)),
                g.uniform(0.0, 4 * math.pi, t),
            ]),
        }

    def ops(self):
        return self.TARGETS

    def run(self, pf, inp, rnd):
        n = self.N
        det = rnd.build(lambda: pf.fiurasek_detector(n))
        rule = pf.matched_fiurasek_rule(n)

        def score(u):
            target = pf.observable_from_unitary(u)
            return pf.povm_distance(target, pf.program(det, rule(target)))

        deltas = [rnd.op(lambda u=u: score(u)) for u in inp["targets"]]
        dims = (det.sys_dim, det.anc_dim)
        del det

        # A command-line run starts with an empty Clebsch-Gordan cache.
        cache = getattr(pf.su2, "_cg_exact", None)
        if hasattr(cache, "cache_clear"):
            cache.cache_clear()
        j = self.TWICE_J / 2

        # Pure-Python Wigner sums and 2x2 calls, timed call by call so that
        # the small probe runs between them.
        cov, cov_rule = rnd.build(
            lambda: (pf.covariant_qubit_detector(j), pf.matched_covariant_rule(j)),
            probe_kind="small")

        def score_covariant(angles):
            target = pf.covariant_target(pf.GroupElement(*angles))
            return pf.povm_distance(target, pf.program(cov, cov_rule(target)))

        covariant = [rnd.build(lambda a=a: score_covariant(a), probe_kind="small")
                     for a in inp["angles"]]
        return {"deltas": deltas, "dims": dims, "covariant": covariant}

    def check(self, pf, inp, out):
        n = self.N
        checks.check_equal("(system, ancilla) dimensions", out["dims"], (2, 2 ** n))
        for delta in out["deltas"]:
            if delta is not None:
                checks.check_law("Fiurasek distance 2/(N+1)", delta, 2 / (n + 1))
        for delta in out["covariant"]:
            checks.check_law("covariant distance 2/(2j+1)", delta, 2 / (self.TWICE_J + 1))
        checks.check_projector(pf.symmetric_projector(n + 1), n + 2)


class DistanceManyOutcomes:
    """Exact distances between random 16-outcome POVMs on dimension 4."""

    name = "distance-many-outcomes"
    PROBE = "small"
    DIM = 4
    OUTCOMES = 16
    RANDOM_PAIRS = 3
    SWAP_PAIRS = 1
    PROBES = 256

    def _random_povm(self, g):
        k, n = self.OUTCOMES, self.DIM
        z = g.standard_normal((k, n, n)) + 1j * g.standard_normal((k, n, n))
        a = z @ z.conj().transpose(0, 2, 1)
        w, v = np.linalg.eigh(a.sum(axis=0))
        isq = (v / np.sqrt(w)) @ v.conj().T
        e = isq @ a @ isq
        return (e + e.conj().transpose(0, 2, 1)) / 2

    def inputs(self, seed, r):
        g = generator(seed, r)
        pairs = [(self._random_povm(g), self._random_povm(g), None)
                 for _ in range(self.RANDOM_PAIRS)]
        for _ in range(self.SWAP_PAIRS):
            p = self._random_povm(g)
            a, b = (int(i) for i in g.choice(self.OUTCOMES, size=2, replace=False))
            q = p.copy()
            q[[a, b]] = p[[b, a]]
            pairs.append((p, q, (a, b)))
        probes = g.standard_normal((self.PROBES, self.DIM)) + 1j * g.standard_normal(
            (self.PROBES, self.DIM))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        return {"pairs": pairs, "probes": probes}

    def ops(self):
        return self.RANDOM_PAIRS + self.SWAP_PAIRS

    def run(self, pf, inp, rnd):
        povms = rnd.build(lambda: [(pf.Povm(list(p)), pf.Povm(list(q)))
                                   for p, q, _ in inp["pairs"]])

        def measure(p, q):
            delta, witness = pf.povm_distance(p, q, return_witness=True)
            return delta, witness.matrix, pf.distance_bounds(p, q)

        return {"results": [rnd.op(lambda p=p, q=q: measure(p, q)) for p, q in povms]}

    def check(self, pf, inp, out):
        for (p, q, swap), res in zip(inp["pairs"], out["results"]):
            if res is None:
                continue
            delta, witness, bounds = res
            checks.check_distance(delta, witness, bounds, p, q, inp["probes"])
            if swap is not None:
                a, b = swap
                checks.check_swap(delta, p[a], p[b])


class UnitaryNets:
    """Greedy qutrit nets at eps 1.6, then a qubit net detector as in C8."""

    name = "unitary-nets"
    PROBE = "small"
    QUTRIT_NETS = 8
    QUTRIT_EPS = 1.6
    QUTRIT_BUDGET = 60
    SAMPLES = 1000
    QUBIT_EPS = 0.7
    QUBIT_BUDGET = 4000
    TARGETS = 50

    def inputs(self, seed, r):
        g = generator(seed, r, 0)
        return {
            "qutrit": [(child_seed(seed, r, 1, i), child_seed(seed, r, 2, i))
                       for i in range(self.QUTRIT_NETS)],
            "qubit": child_seed(seed, r, 3),
            "targets": [checks.haar_unitary(g, 2) for _ in range(self.TARGETS)],
        }

    def ops(self):
        return self.QUTRIT_NETS

    def run(self, pf, inp, rnd):
        radius3 = self.QUTRIT_EPS / math.sqrt(6)

        def qutrit(build_seed, cert_seed):
            net = pf.build_net(3, radius3, self.QUTRIT_BUDGET, pf.Rng(build_seed))
            return net, pf.certify_coverage(net, self.SAMPLES, pf.Rng(cert_seed))

        nets = [rnd.op(lambda s=s: qutrit(*s)) for s in inp["qutrit"]]

        def c8():
            net = pf.build_net(2, self.QUBIT_EPS / 2, self.QUBIT_BUDGET, pf.Rng(inp["qubit"]))
            det = pf.net_detector(net)
            basis = np.eye(len(net))
            states = [pf.pure_state(basis[:, k]) for k in range(len(net))]
            programmed = [pf.program(det, s).effects for s in states]
            targets = [pf.observable_from_unitary(u) for u in inp["targets"]]
            report = pf.estimate_accuracy(det, targets, states)
            return net, programmed, [t.delta for t in report.per_target]

        return {"nets": nets, "c8": rnd.build(c8), "radius3": radius3}

    def check(self, pf, inp, out):
        for res, (_, cert_seed) in zip(out["nets"], inp["qutrit"]):
            if res is None:
                continue
            net, rate = res
            checks.check_packing(net.centers, out["radius3"])
            checks.check_coverage(rate, net.centers, out["radius3"], self.SAMPLES, cert_seed)
        net, programmed, deltas = out["c8"]
        checks.check_packing(net.centers, self.QUBIT_EPS / 2)
        checks.check_programmed(programmed, net.centers)
        checks.check_net_bound(deltas, inp["targets"], net.centers)


WORKLOADS = {w.name: w for w in (Su2Detectors(), DistanceManyOutcomes(), UnitaryNets())}
