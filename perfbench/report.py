"""Every benchmark figure from one command.

    python3 perfbench/report.py [seed]

Runs each workload of BENCHMARK.json once untraced and once traced, for the
run length BENCHMARK.json sets, then prints Markdown tables: the end-to-end
metrics with unit, median, highest sample and sample count (plus
``failed_frac``, failed over attempted operations), every per-layer metric,
the ROADMAP baseline rows under their metric names, and the provenance.
Takes about five minutes on 2 CPUs.
"""

import json
import os
import subprocess
import sys
import time

import workloads as wl

ROOT = wl.HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# (ROADMAP baseline row, workload whose traced run it is read from, metric names)
BASELINE = [
    ("`verify --suite all` wall", "verify_all", ["wall_s"]),
    ("  per check: T2.15, T2.9, sweep, L3.3", "verify_all",
     ["verify.T2.15_s", "verify.T2.9_s", "verify.sweep_s", "verify.L3.3_s"]),
    ("sweep [10^7+1, 1.1*10^7]: 1 worker, 2 workers, ratio", "sweep_far",
     ["verify.sweep.seeds_per_s.w1", "verify.sweep.seeds_per_s.w2", "verify.sweep.scaling"]),
    ("`syr` / `locate`, 20-bit", "verify_all", ["arith.syr_ns.b20", "matrices.locate_ns.b20"]),
    ("`locate` on a row-300 / row-1000 entry", "verify_all",
     ["matrices.locate_ns.row300", "matrices.locate_ns.row1000"]),
    ("4000-bit seed: model, oracle, `col_seq`", "explore",
     ["sequences.syr_seq_model_ms.b4000", "sequences.syr_seq_oracle_ms.b4000",
      "sequences.col_seq_ms.b4000"]),
]


def run(workload, seed, trace):
    cmd = [sys.executable, str(wl.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           check=True).stdout.splitlines()
    detail = json.loads(lines[-2].removeprefix("detail: "))
    return detail, json.loads(lines[-1])


def fmt(value):
    return f"{value:.4g}"


def tier1_seconds():
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True)
    return time.perf_counter() - t0, done.stdout.strip().splitlines()[-1:]


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    names = [w["name"] for w in BENCHMARK["workloads"]]
    plain = {name: run(name, seed, 0) for name in names}
    traced = {name: run(name, seed, 1) for name in names}

    print(f"## End to end (seed {seed}, {BENCHMARK['run_seconds']} s per run)\n")
    print("| workload | metric | unit | median | highest | samples |")
    print("|---|---|---|---|---|---|")
    for name in names:
        detail, result = plain[name]
        for metric in BENCHMARK["end_to_end"]:
            samples = detail["samples"].get(metric["name"])
            value = result["metrics"][metric["name"]]["value"]
            high = max(samples) if samples else value
            print(f"| {name} | {metric['name']} | {metric['unit']} | {fmt(value)} | {fmt(high)} "
                  f"| {len(samples) if samples else 1} |")
        print(f"| {name} | failed_frac | ratio | {fmt(detail['failed_frac'])} | "
              f"{result['failed']}/{result['attempted']} ops | {result['attempted']} |")

    print("\n## Per layer (traced run)\n")
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for metric in BENCHMARK["per_layer"]:
        values = [fmt(traced[name][1]["metrics"][metric["name"]]["value"]) for name in names]
        print(f"| {metric['name']} | {metric['unit']} | " + " | ".join(values) + " |")

    print("\n## ROADMAP baseline\n")
    print("| what | metrics | number |")
    print("|---|---|---|")
    if (ROOT / "tests").is_dir():
        seconds, tail = tier1_seconds()
        print(f"| tier-1 | (pytest wall) | {seconds:.1f} s ({' '.join(tail)}) |")
    for label, workload, metrics in BASELINE:
        source = plain if metrics == ["wall_s"] else traced
        values = [source[workload][1]["metrics"][m] for m in metrics]
        numbers = " / ".join(f"{fmt(v['value'])} {v['unit']}" for v in values)
        print(f"| {label} | {', '.join(metrics)} | {numbers} |")

    print("\n## Provenance\n")
    for name in names:
        prov = dict(plain[name][0]["provenance"])
        prov.pop("ops")
        print(f"- {name}: " + json.dumps(prov, sort_keys=True))
        for failure, count in plain[name][0]["failures"].items():
            print(f"  - failed {count}x: {failure}")
    overhead = ", ".join(f"{name} {fmt(traced[name][1]['metrics']['trace.overhead']['value'])}"
                         for name in names)
    print(f"- tracing overhead (traced / untraced pass wall): {overhead}")


if __name__ == "__main__":
    main()
