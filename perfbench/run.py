"""syrtree benchmark.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
Workloads (see ``workloads.py``):

    verify_all  ``syrtree verify --suite all --workers 2 --format json`` through
                ``cli.main``: every bounded check plus the memoized sweep from 1
    sweep_far   ``verify.sweep_convergence`` on [10^7+1, 1.1*10^7], 2 workers
    explore     a CLI batch on 4000-bit seeds, deep rows and the tree, plus
                ``tree.path_to_root`` and one 16000-bit sequence printed as JSON

Set-up (importing the package and building the inputs and references) is
repeated, at least five times and more while it is quick, before anything
is timed. Then passes over the workload's fixed operation list run until
the next pass would end after ``--seconds``. Every operation's output is
checked; an operation fails when it raises, exits non-zero or differs from
its reference (only the last makes ``correct`` false).

``--trace 0`` reports the end-to-end metrics: median ``setup_s``, median
``wall_s`` (time inside the operations of one pass), median ``seeds_per_s``
(seeds the pass's correct operations decided, per second of the pass) and
``peak_rss_mb`` (peak RSS of this process plus that of its largest worker).

``--trace 1`` alternates untraced passes with passes traced by ``spans.py``
and reports the per-layer metrics: seconds per pass in each function and
check, self time per layer, exact counts per pass, the tracing overhead
(median traced over median untraced pass), and the microbenchmarks of
``probes.py``. ``sequences.syr_seq_oracle_s`` is the oracle time of one
set-up, the only place the oracle runs. Spans go to
``perfbench/out/spans-<workload>-<seed>.jsonl``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it, ``detail: {...}``, holds the
samples, failures and provenance.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter

import probes
import workloads as wl
from spans import Tracer

# set-up is repeated at least this often, and while under SETUP_SECONDS in all
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_SECONDS = 5, 25, 1.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "seeds_per_s": "1/s", "peak_rss_mb": "MB"}

CHECK_DETAILS = {
    "L2.1": ("identities_checked", "table_rows"),
    "T2.9": ("cells_enumerated", "odds_checked"),
    "T2.11": ("entries_checked", "cells_checked", "table_anchors"),
    "T2.12": ("cells_enumerated", "witnesses"),
    "T2.15": ("seeds_checked",),
    "L3.3": ("evens_checked", "sequence_prefixes_checked"),
}
TIMED_SPANS = (
    [f"verify.{cid}" for cid in CHECK_DETAILS] + ["verify.sweep"]
    + [f"sequences.{fn}" for fn in ("syr_seq_model", "col_seq", "to_json", "to_csv")]
    + [f"tree.{fn}" for fn in ("build_tree", "export", "path_to_root")]
)
LEAF_CALLS = ("matrices.locate", "matrices.entry", "arith.syr")

PER_LAYER = {
    **{name + "_s": "s" for name in TIMED_SPANS},
    "sequences.syr_seq_oracle_s": "s",
    **{f"{layer}.self_s": "s" for layer in wl.LAYERS},
    **{name + ".calls": "count" for name in LEAF_CALLS},
    "sequences.terms": "count",
    **{f"verify.{cid}.{key}": "count" for cid, keys in CHECK_DETAILS.items() for key in keys},
    "trace.spans": "count",
    "trace.overhead": "ratio",
    **probes.NAMES,
}


def setup(workload, seed):
    t0 = time.perf_counter()
    mods = wl.import_syrtree()
    work = wl.WORKLOADS[workload](mods, seed, wl.load_golden())
    return time.perf_counter() - t0, mods, work


class Tally:
    """Operations attempted and failed over all passes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()  # "label: reason" -> count
        self.mismatched = 0

    def run_pass(self, work, tracer=None, pass_no=0):
        """One pass; returns (seconds inside the operations, seeds decided)."""
        wall, seeds = 0.0, 0
        for i, op in enumerate(work.ops):
            if tracer is not None:
                tracer.trace_id = f"{pass_no}.{i}"
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising operation fails; the run goes on
                wall += time.perf_counter() - t0
                self.failures[f"{op.label}: {type(exc).__name__}: {exc}"[:300]] += 1
                continue
            wall += time.perf_counter() - t0
            try:
                problem = op.check(out)
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                problem = f"malformed output: {type(exc).__name__}: {exc}"[:300]
            if problem is None:
                seeds += op.seeds
            else:
                self.mismatched += 1
                self.failures[f"{op.label}: {problem}"] += 1
        return wall, seeds


def repeat(seconds, one_pass):
    """Run passes until the next one would likely end after ``seconds``; at least one."""
    start = time.perf_counter()
    passes = 0
    while True:
        one_pass()
        passes += 1
        now = time.perf_counter()
        if now + (now - start) / passes > start + seconds:
            return


def untraced_run(work, tally, seconds):
    walls, rates = [], []

    def one_pass():
        wall, seeds = tally.run_pass(work)
        walls.append(wall)
        rates.append(seeds / wall)

    repeat(seconds, one_pass)
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "wall_s": statistics.median(walls),
        "seeds_per_s": statistics.median(rates),
        "peak_rss_mb": rss_kib / 1024,
    }
    return metrics, {"wall_s": walls, "seeds_per_s": rates}


def traced_run(workload, seed, mods, tally, seconds):
    tracer = Tracer()
    tracer.install(mods)
    work = wl.WORKLOADS[workload](mods, seed, wl.load_golden())
    tracer.uninstall()
    setup_span_ns = dict(tracer.span_ns)
    tracer.reset()
    plain, traced = [], []

    def one_pair():
        plain.append(tally.run_pass(work)[0])
        tracer.install(mods)
        try:
            traced.append(tally.run_pass(work, tracer, len(traced))[0])
        finally:
            tracer.uninstall()

    repeat(seconds, one_pair)
    overhead = statistics.median(traced) / statistics.median(plain)
    metrics = layer_metrics(tracer, len(traced), setup_span_ns, work.counts, overhead,
                            probes.run(mods, seed))
    write_spans(tracer, workload, seed)
    return metrics, {"traced_wall_s": traced, "untraced_wall_s": plain}


def layer_metrics(tracer, passes, setup_span_ns, counts, overhead, probe_metrics):
    """Per-layer metrics, per pass, from a tracer that recorded ``passes`` passes."""
    out = {name + "_s": tracer.span_ns.get(name, 0) / passes / 1e9 for name in TIMED_SPANS}
    out["sequences.syr_seq_oracle_s"] = setup_span_ns.get("sequences.syr_seq_oracle", 0) / 1e9
    self_ns = tracer.layer_self_ns()
    for layer in wl.LAYERS:
        out[f"{layer}.self_s"] = self_ns[layer] / passes / 1e9
    for name in LEAF_CALLS:
        out[name + ".calls"] = tracer.leaves.get(name, (0, 0))[0] // passes
    out["sequences.terms"] = tracer.terms // passes
    for cid, keys in CHECK_DETAILS.items():
        for key in keys:
            name = f"verify.{cid}.{key}"
            out[name] = counts.get(name, 0)
    out["trace.spans"] = len(tracer.spans) // passes
    out["trace.overhead"] = overhead
    out.update(probe_metrics)
    return out


def write_spans(tracer, workload, seed):
    out_dir = wl.HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload}-{seed}.jsonl", "w", encoding="utf-8") as fh:
        for span_id, parent, trace_id, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "trace": trace_id,
                                 "name": name, "start_ns": start, "end_ns": end}) + "\n")


def git_sha():
    git = wl.HERE.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, work, passes):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "ops_per_pass": len(work.ops),
        "passes": passes,
        "ops": [op.label for op in work.ops],
    }


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if not (wl.SRC / "syrtree" / "__init__.py").is_file():
        print(f"error: no syrtree package under {wl.SRC}", file=sys.stderr)
        return 2

    setups = []
    while len(setups) < SETUP_MIN_REPEATS or (
            sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX_REPEATS):
        seconds, mods, work = setup(args.workload, args.seed)
        setups.append(seconds)
    tally = Tally()
    if args.trace:
        metrics, samples = traced_run(args.workload, args.seed, mods, tally, args.seconds)
        units = PER_LAYER
    else:
        metrics, samples = untraced_run(work, tally, args.seconds)
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    samples["setup_s"] = setups
    failed = sum(tally.failures.values())
    passes = tally.attempted // len(work.ops)
    detail = {
        "provenance": provenance(args, work, passes),
        "samples": samples,
        "failed_frac": failed / tally.attempted,
        "failures": dict(tally.failures),
    }
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": tally.mismatched == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
