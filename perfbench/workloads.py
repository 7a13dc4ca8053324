"""The benchmark's workloads: their inputs, the fixed operation list of one
pass, and the reference each operation's output is checked against.

Each workload is a closed loop: one client runs the operations one after
the other with no think time. ``verify_all`` and ``sweep_far`` are fixed by
their definition (default bounds, a fixed sweep window with known records),
so the seed does not change them. ``explore`` draws its inputs with the
seed from fixed pools whose output digests were recorded by ``record.py``.
"""

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
import types
from pathlib import Path
from typing import Any, Callable, List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"

LAYERS = ("arith", "matrices", "sequences", "tree", "verify", "cli")

VERIFY_ARGV = ["verify", "--suite", "all", "--workers", "2", "--format", "json"]

SWEEP_LO, SWEEP_HI, SWEEP_BUDGET, SWEEP_WORKERS = 10**7 + 1, 11 * 10**6, 10**5, 2
SWEEP_MAX_STOPPING_TIME = (675, 10507503)
SWEEP_MAX_EXCURSION = (6727544495440, 10804223)

SEQ_POOL = 12  # 4000-bit seeds
CELL_POOL = 32  # entries at rows 500..1500
TREE_ARGV = ["tree", "--levels", "5", "--max-p", "8"]
DOCS = {
    "tree_json": TREE_ARGV + ["--format", "json", "--include-black"],
    "tree_dot": TREE_ARGV + ["--format", "dot"],
    "table_b": ["table", "--which", "B"],
}
PROBE_BITS = 16000  # decimal form exceeds the default int/str limit of 4300 digits


class NonZeroExit(Exception):
    """A CLI command returned or exited with a code other than 0."""


class Op(NamedTuple):
    """One operation of a pass.

    ``run`` does the work and returns its output; raising counts as a
    failed operation. ``check`` returns None when the output matches its
    reference, else what differs. ``seeds`` is how many seeds a correct
    run decides.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    seeds: int = 0


class Workload(NamedTuple):
    ops: List[Op]
    counts: dict  # exact counts the outputs report, filled in by the checks


def import_syrtree():
    """Import the package from this checkout's ``src``, afresh each time."""
    for name in [n for n in sys.modules if n == "syrtree" or n.startswith("syrtree.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = types.SimpleNamespace(
        **{layer: importlib.import_module("syrtree." + layer) for layer in LAYERS})
    if Path(mods.cli.__file__).resolve().parent != SRC / "syrtree":
        raise ImportError(f"syrtree imported from {mods.cli.__file__}, not {SRC}")
    return mods


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(mods, argv) -> str:
    """``syrtree <argv>`` in-process through ``cli.main``; returns stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = mods.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    if rc != 0:
        raise NonZeroExit(f"exit {rc}: {err.getvalue().strip()[-200:]}")
    return out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _same_digest(expected):
    return lambda out: None if digest(out) == expected else "digest differs"


def parse_int(text: str) -> int:
    """Decimal digits to int in chunks, so the int/str digit limit does not apply."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


# ---------------------------------------------------------------- verify_all

def verify_all(mods, seed, golden) -> Workload:
    expected = golden["verify_all"]
    counts = {}
    decided = json.loads(expected)["sweep"]["decided"]

    def check(out):
        if out != expected:
            return "report differs from the recorded one"
        for c in json.loads(out)["checks"]:
            for key, value in c["details"].items():
                counts[f"verify.{c['id']}.{key}"] = value
        return None

    op = Op("verify --suite all", lambda: run_cli(mods, VERIFY_ARGV), check, decided)
    return Workload([op], counts)


# ----------------------------------------------------------------- sweep_far

def check_sweep(report) -> Optional[str]:
    got = (report.max_stopping_time, report.max_excursion, report.undecided,
           report.decided)
    want = (SWEEP_MAX_STOPPING_TIME, SWEEP_MAX_EXCURSION, 0, SWEEP_HI - SWEEP_LO + 1)
    return None if got == want else f"sweep report {got} != {want}"


def sweep_far(mods, seed, golden) -> Workload:
    def run():
        return mods.verify.sweep_convergence(
            SWEEP_LO, SWEEP_HI, budget=SWEEP_BUDGET, workers=SWEEP_WORKERS)

    op = Op("sweep_convergence", run, check_sweep, SWEEP_HI - SWEEP_LO + 1)
    return Workload([op], {})


# ------------------------------------------------------------------- explore

def pool_seed(i: int) -> int:
    return random.Random(f"explore-b4000-{i}").getrandbits(4000) | (1 << 3999) | 1


def pool_cell(i: int):
    """(a, p, q, n): n is the entry at that cell, built by iterating m -> 4m+1."""
    rng = random.Random(f"explore-cell-{i}")
    a, p, q = rng.choice((1, 5)), rng.randint(500, 1500), rng.getrandbits(20)
    n = 8 * q + 1 if a == 1 else 4 * q + 3
    for _ in range(p):
        n = 4 * n + 1
    return a, p, q, n


def probe_seed() -> int:
    return random.Random("explore-probe").getrandbits(PROBE_BITS) | (1 << (PROBE_BITS - 1)) | 1


def seq_argv(n, kind, fmt):
    return ["seq", str(n), "--kind", kind, "--format", fmt]


def locate_argv(n, fmt):
    return ["locate", str(n), "--format", fmt]


def check_col_json(terms, expected_digest):
    def check(out):
        if json.loads(out)["terms"] != terms:
            return "col sequence differs from the oracle"
        return None if digest(out) == expected_digest else "digest differs"
    return check


def check_syr_csv(terms, expected_digest):
    def check(out):
        header, row = out.splitlines()
        if header != "seed,stopping_time,max_term,terms":
            return "unexpected csv header"
        if [int(t) for t in row.split(",")[3].split()] != terms:
            return "syr sequence differs from the oracle"
        return None if digest(out) == expected_digest else "digest differs"
    return check


def check_locate(cell, fmt, expected_digest):
    a, p, q, n = cell

    def check(out):
        if fmt == "json":
            doc = json.loads(out)
            got = (doc["a"], doc["p"], doc["q"], doc["entry"], doc["syr"])
        else:
            fields = dict(f.split("=") for f in out.split())
            got = tuple(int(fields[k]) for k in ("a", "p", "q", "entry", "syr"))
        if got != (a, p, q, n, 6 * q + a):
            return f"locate {got[:3]} != {(a, p, q)}"
        return None if digest(out) == expected_digest else "digest differs"
    return check


def check_path(terms):
    def check(path):
        emitted = [t for _c, t in path.steps]
        if path.exhausted or emitted != terms[1:]:
            return "path_to_root differs from the oracle"
        if any(6 * c.q + c.a != t for c, t in path.steps):
            return "path_to_root emitted a term that is not its column's 6q+a"
        return None
    return check


def check_probe(n, terms):
    stop = len(terms) - 1
    want = {"kind": "syr", "seed": n, "steps": stop, "truncated": False,
            "stats": {"stopping_time": stop, "max_term": max(terms), "odd_steps": stop}}

    def check(out):
        got = json.loads(out, parse_int=parse_int)
        return None if got == want else "over-limit sequence differs from the oracle"
    return check


def explore(mods, seed, golden) -> Workload:
    """Interactive batch: huge seeds, deep rows, tree export, one over-limit probe."""
    ref = golden["explore"]
    rng = random.Random(seed)
    seqs = rng.sample(range(SEQ_POOL), 6)
    cells = rng.sample(range(CELL_POOL), 6)
    oracle = mods.sequences.syr_seq_oracle
    ops = []
    for i in seqs[:2]:
        n = pool_seed(i)
        terms = mods.sequences.collatz_expand(oracle(n)).terms
        ops.append(Op(f"seq b4000 col/json #{i}",
                      lambda argv=seq_argv(n, "col", "json"): run_cli(mods, argv),
                      check_col_json(terms, ref["seq_col_json"][i]), 1))
    for i in seqs[2:4]:
        n = pool_seed(i)
        ops.append(Op(f"seq b4000 syr/csv #{i}",
                      lambda argv=seq_argv(n, "syr", "csv"): run_cli(mods, argv),
                      check_syr_csv(oracle(n).terms, ref["seq_syr_csv"][i]), 1))
    for k, i in enumerate(cells):
        cell = pool_cell(i)
        fmt = ("text", "json")[k % 2]
        ops.append(Op(f"locate row{cell[1]} {fmt} #{i}",
                      lambda argv=locate_argv(cell[3], fmt): run_cli(mods, argv),
                      check_locate(cell, fmt, ref["locate_" + fmt][i])))
    for key, argv in DOCS.items():
        ops.append(Op(key, lambda argv=argv: run_cli(mods, argv),
                      _same_digest(ref[key])))
    for i in seqs[4:]:
        n = pool_seed(i)
        ops.append(Op(f"path_to_root b4000 #{i}",
                      lambda n=n: mods.tree.path_to_root(n),
                      check_path(oracle(n).terms), 1))
    n = probe_seed()
    argv = ["seq", hex(n), "--kind", "syr", "--format", "json", "--no-terms"]
    ops.append(Op(f"seq b{PROBE_BITS} syr/json --no-terms",
                  lambda: run_cli(mods, argv), check_probe(n, oracle(n).terms), 1))
    return Workload(ops, {})


WORKLOADS = {"verify_all": verify_all, "sweep_far": sweep_far, "explore": explore}
