"""Layer microbenchmarks for the traced run.

Cost per call of the hot leaf functions at a few magnitudes, the 4000-bit
sequence generators, and sweep throughput with one and two workers on the
``sweep_far`` window. Inputs come from the run's seed. Each figure is the
median over repeats, taken with no tracer installed.
"""

import random
import statistics
import time

import workloads as wl

REPEATS = 7


def _odd(rng, bits):
    return rng.getrandbits(bits) | (1 << (bits - 1)) | 1


def _row_entry(rng, p):
    a, q = rng.choice((1, 5)), rng.getrandbits(16)
    n = 8 * q + 1 if a == 1 else 4 * q + 3
    for _ in range(p):
        n = 4 * n + 1
    return n


def per_call(fn, inputs, repeats=REPEATS):
    """Median over repeats of the seconds per call of fn(*x) for x in inputs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for x in inputs:
            fn(*x)
        times.append((time.perf_counter() - t0) / len(inputs))
    return statistics.median(times)


def sweep_rate(mods, workers):
    t0 = time.perf_counter()
    report = mods.verify.sweep_convergence(
        wl.SWEEP_LO, wl.SWEEP_HI, budget=wl.SWEEP_BUDGET, workers=workers)
    rate = (wl.SWEEP_HI - wl.SWEEP_LO + 1) / (time.perf_counter() - t0)
    problem = wl.check_sweep(report)
    if problem:
        raise AssertionError(problem)
    return rate


def run(mods, seed):
    rng = random.Random(f"probes-{seed}")
    locate, entry, syr = mods.matrices.locate, mods.matrices.entry, mods.arith.syr
    odds = {bits: [(_odd(rng, bits),) for _ in range(count)]
            for bits, count in ((20, 4000), (200, 2000), (4000, 500))}
    rows = {p: [(_row_entry(rng, p),) for _ in range(count)]
            for p, count in ((300, 200), (1000, 60))}
    cells = [tuple(locate(n)) for (n,) in odds[20]]
    out = {}
    for bits in (20, 200, 4000):
        out[f"arith.syr_ns.b{bits}"] = per_call(syr, odds[bits]) * 1e9
    for bits in (20, 200, 4000):
        out[f"matrices.locate_ns.b{bits}"] = per_call(locate, odds[bits]) * 1e9
    for p in (300, 1000):
        out[f"matrices.locate_ns.row{p}"] = per_call(locate, rows[p]) * 1e9
    out["matrices.entry_ns.b20"] = per_call(entry, cells) * 1e9
    big = [(_odd(rng, 4000),)]
    for fn in ("syr_seq_model", "syr_seq_oracle", "col_seq"):
        out[f"sequences.{fn}_ms.b4000"] = per_call(getattr(mods.sequences, fn), big, 3) * 1e3
    w2 = sweep_rate(mods, 2)
    w1 = sweep_rate(mods, 1)
    out["verify.sweep.seeds_per_s.w1"] = w1
    out["verify.sweep.seeds_per_s.w2"] = w2
    out["verify.sweep.scaling"] = w2 / w1
    return out


NAMES = {
    **{f"arith.syr_ns.b{b}": "ns" for b in (20, 200, 4000)},
    **{f"matrices.locate_ns.{c}": "ns" for c in ("b20", "b200", "b4000", "row300", "row1000")},
    "matrices.entry_ns.b20": "ns",
    **{f"sequences.{fn}_ms.b4000": "ms" for fn in ("syr_seq_model", "syr_seq_oracle", "col_seq")},
    "verify.sweep.seeds_per_s.w1": "1/s",
    "verify.sweep.seeds_per_s.w2": "1/s",
    "verify.sweep.scaling": "ratio",
}
