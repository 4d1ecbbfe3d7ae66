"""Benchmark of povmforge: three workloads, end-to-end and traced per-layer metrics.

Run from the repository root, which must hold ``src/povmforge``:

    python3 bench/run.py --workload su2-detectors --seed 1 --seconds 40 --trace 0

The run repeats whole rounds of its workload (see ``workloads.py``) until
``--seconds`` have passed, checks every output, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: median, over seven fresh interpreters started one after
  another, of the time from process start to the first timed call
  (importing povmforge, making the inputs, BLAS start-up);
* ``run_s``: mean wall time of one round inside povmforge;
* ``op_p50_ms``: median wall time of one unit operation;
* ``peak_rss_mib``: peak resident memory of this process.

The three times are divided by the host's slowdown that the speed probe
(``speed.py``) measured beside them, so they read as seconds at the
probe's nominal speed; the raw times are kept in the result file.
``run_s`` and ``op_p50_ms`` use the probes of their own round.

With ``--trace 1`` the run times rounds untraced for half of ``--seconds``,
then replays the same rounds with every listed public function wrapped
(``tracer.py``), and prints the per-layer metrics per traced round plus
``trace.overhead_s``, the mean traced minus untraced time of a round.

The full result, with the environment and every sample, is also written to
``.bench_results/<workload>-seed<seed>-trace<0|1>.json``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_PROBES = 7
SETUP_SPEED_CHUNKS = 8
MAX_BLAS_THREADS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# The names of workloads.WORKLOADS, listed here because importing that module
# imports numpy, which must wait until the BLAS thread count is set.
WORKLOAD_NAMES = ("su2-detectors", "distance-many-outcomes", "unitary-nets")


def now():
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can be
    # subtracted from its parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_threads():
    return max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    return args


def setup(root, workload_name, seed):
    """Everything before the first timed call: imports, inputs, BLAS start-up.

    Returns (povmforge module, workload, round-0 inputs).
    """
    src = root / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import povmforge
    from workloads import WORKLOADS

    if Path(povmforge.__file__).resolve().parent != (src / "povmforge").resolve():
        raise ImportError(f"povmforge was imported from {povmforge.__file__}, not {src}")
    workload = WORKLOADS[workload_name]
    inputs = workload.inputs(seed, 0)
    # OpenBLAS and LAPACK do one-off work on their first calls above a small
    # size; a command-line run pays it once, before its first result.
    g = np.random.default_rng(0)
    for n in (2, 64):
        a = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        h = a + a.conj().T
        np.linalg.eigvalsh(h)
        np.linalg.eigh(h)
        np.linalg.norm(a, 2)
        np.linalg.qr(a)
    return povmforge, workload, inputs


def setup_seconds(args):
    """Median setup time over fresh interpreters run one after another.

    Each probe's time is divided by the slowdown its speed chunks measured
    right after its setup. Returns (median, [(raw s, slowdown)] per probe).
    """
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    probes = []
    for _ in range(SETUP_PROBES):
        t0 = now()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        ready, slowdown = proc.stdout.split()[-2:]
        probes.append((float(ready) - t0, float(slowdown)))
    return statistics.median(raw / slow for raw, slow in probes), probes


def blas_info():
    """BLAS library, version and live thread count, as far as they can be read."""
    import ctypes

    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    libs = set()
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "blas" in line.lower()}
    except OSError:
        pass
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads"] = None
    return info


def environment(root):
    import numpy as np

    src_lines = sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads_requested": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "src_py_lines": src_lines,
    }


def run_round(pf, workload, inputs, tracer):
    from workloads import Round

    rnd = Round(workload.ops(), workload.PROBE)
    try:
        out = workload.run(pf, inputs, rnd)
    except Exception as exc:  # a failed construction fails the whole round
        rnd.failed = rnd.ops
        rnd.op_s = []
        rnd.errors.append(f"{type(exc).__name__}: {exc}")
        return rnd, []
    from checks import CheckError

    with tracer.paused():
        try:
            workload.check(pf, inputs, out)
        except CheckError as exc:
            return rnd, [str(exc)]
    return rnd, []


def measure(pf, workload, seed, seconds, first_inputs, tracer, replay=None):
    """Run whole rounds within `seconds`; `replay` bounds the round count.

    The first round always runs; another starts only while a round as long
    as the last one still ends within `seconds`.
    """
    rounds, failures = [], []
    start = time.perf_counter()
    r = 0
    inputs = first_inputs
    while True:
        t0 = time.perf_counter()
        rnd, bad = run_round(pf, workload, inputs, tracer)
        rounds.append(rnd)
        failures += [f"round {r}: {msg}" for msg in bad]
        r += 1
        t1 = time.perf_counter()
        if t1 + (t1 - t0) - start > seconds or (replay is not None and r >= replay):
            return rounds, failures
        inputs = workload.inputs(seed, r)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "povmforge" / "__init__.py").is_file():
        print("error: run from a povmforge checkout (no src/povmforge here)", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(blas_threads())

    if args.setup_probe:
        setup(root, args.workload, args.seed)
        ready = now()
        import speed

        speed.small_chunk()  # its first call pays one-off costs
        slowdown = speed.slowdown("small", *speed.probe("small", n=SETUP_SPEED_CHUNKS))
        print(repr(ready), repr(slowdown))
        return 0

    setup_s, probes = (None, []) if args.trace else setup_seconds(args)
    pf, workload, inputs = setup(root, args.workload, args.seed)
    import speed
    from tracer import Tracer, metric_names

    tracer = Tracer()
    for kind in dict.fromkeys(("small", workload.PROBE)):
        speed.CHUNKS[kind]()  # a chunk's first call pays one-off costs
    env = environment(root)

    if args.trace:
        plain, failures = measure(pf, workload, args.seed, args.seconds / 2, inputs, tracer)
        tracer.install()
        tracer.enabled = True
        traced, more = measure(pf, workload, args.seed, args.seconds / 2,
                               inputs, tracer, replay=len(plain))
        tracer.enabled = False
        tracer.uninstall()
        failures += more
        rounds = plain + traced
        per_layer = tracer.per_round(len(traced))
        per_layer["trace.overhead_s"] = statistics.fmean(
            t.run_s - p.run_s for t, p in zip(traced, plain))
        units = {name: unit for name, unit, _ in metric_names()}
        metrics = {name: {"value": per_layer[name], "unit": units[name]} for name in units}
    else:
        rounds, failures = measure(pf, workload, args.seed, args.seconds, inputs, tracer)
        op_s = [t for rnd in rounds for t in rnd.norm_op_s]
        good = [rnd.norm_run_s for rnd in rounds if not rnd.failed]
        if not op_s or not good:
            print("error: no operation succeeded", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": statistics.fmean(good), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(op_s), "unit": "ms"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB"},
        }

    result = {
        "correct": not failures,
        "attempted": sum(rnd.ops for rnd in rounds),
        "failed": sum(rnd.failed for rnd in rounds),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "result": result,
        "setup_probes_s_slowdown": probes,
        "rounds": [{"run_s": rnd.run_s, "build_s": rnd.build_s, "op_s": rnd.op_s,
                    "calls": rnd.calls, "probes": rnd.probes,
                    "failed": rnd.failed, "errors": rnd.errors} for rnd in rounds],
        "check_failures": failures,
    }
    out_dir = root / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    for msg in failures + [e for rnd in rounds for e in rnd.errors]:
        print(f"FAIL {msg}", file=sys.stderr)
    print("environment " + json.dumps(env))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
