"""Host speed probe: fixed work, timed next to each timed call into povmforge.

On a shared virtual machine the CPU's speed drifts by a third and more
over tens of seconds, as other tenants load the host, so two 40 s runs of
the same code can differ by more than any useful bound. The probe measures
that drift. After each timed call a round runs fixed chunks of work that
do not touch povmforge, about ``SHARE`` of the call's time, and divides
the round's times by how much slower than nominal its chunks ran.

Two kinds of chunk follow the two kinds of work the workloads do:

* ``small``: a Python loop of 4x4 numpy eigensolves and in-place sums,
  like ``povm_distance``, ``build_net`` and the Wigner sums;
* ``dense``: a 256x256 complex SVD, a 512x512 complex product on the BLAS
  threads and passes over 8 MiB, like the 2048-dimensional Fiurasek
  detector, whose ``program`` is two 2048x2048 complex products.

A divided time reads as the call's time at the speed where a chunk takes
its ``NOMINAL_S``.
"""

import functools
import time

import numpy as np

# Median time of one chunk of each kind on the reference host (2 vCPUs,
# Python 3.11, numpy 2.4 with OpenBLAS on 2 threads). Only a scale.
NOMINAL_S = {"small": 0.02, "dense": 0.034}
# Probe time as a share of the timed call's time.
SHARE = 0.08


# The chunks' fixed inputs are made on first use, so imports stay cheap and
# a workload holds only its own kind's (dense: 13 MiB).
@functools.cache
def _small_operands():
    g = np.random.default_rng(20261018)
    z = g.standard_normal((16, 4, 4)) + 1j * g.standard_normal((16, 4, 4))
    return [h + h.conj().T for h in z]


@functools.cache
def _dense_operands():
    g = np.random.default_rng(20261019)
    square = g.standard_normal((256, 256)) + 1j * g.standard_normal((256, 256))
    big = g.standard_normal((512, 512)) + 1j * g.standard_normal((512, 512))
    return square, big, g.standard_normal(1 << 19) + 1j * g.standard_normal(1 << 19)


def small_chunk():
    small = _small_operands()
    acc = 0.0
    for i in range(640):
        s = small[i % 16].copy()
        for m in small[1:7]:
            s += 0.5 * m
        vals, _ = np.linalg.eigh((s + s.conj().T) / 2)
        acc += float(vals[-1])
    return acc


def dense_chunk():
    square, big, long = _dense_operands()
    acc = float(np.linalg.svd(square, compute_uv=False)[0])
    acc += float(abs((big @ big)[0, 0]))
    for _ in range(4):
        np.multiply(long, 1.0, out=long)
    return acc + float(abs(long[0]))


CHUNKS = {"small": small_chunk, "dense": dense_chunk}


def probe(kind, busy_s=None, n=None):
    """Run `n` chunks, or chunks worth `SHARE` of a call that took `busy_s`.

    Returns (seconds, chunks) of the probe.
    """
    if n is None:
        n = max(1, round(SHARE * busy_s / NOMINAL_S[kind]))
    chunk = CHUNKS[kind]
    t0 = time.perf_counter()
    for _ in range(n):
        chunk()
    return time.perf_counter() - t0, n


def slowdown(kind, seconds, chunks):
    """How much slower than nominal `chunks` chunks of `kind` ran in `seconds`."""
    return seconds / (chunks * NOMINAL_S[kind])
