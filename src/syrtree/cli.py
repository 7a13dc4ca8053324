"""Command-line surface: seq, locate, tree, verify, table.

Text output is human-first; json, csv and dot outputs are deterministic
byte for byte for fixed flags (timing and worker count never leak into
machine formats). Exit codes: 0 pass/success, 1 check failure, 2 usage
error, out of memory or a lost worker process, 3 undecided at budget
(with --strict for seq), 130 interrupted (Ctrl-C), 141 stdout closed by
its reader (as by `| head`; 128 + SIGPIPE, printing nothing).
"""

import argparse
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional

from . import sequences, verify
from .matrices import locate, residue6
from .sequences import DEFAULT_MAX_STEPS, col_seq, stats, syr_seq_model
from .tree import build_tree, export

ENV_WORKERS = "SYRTREE_WORKERS"


def _int(text: str, hex_ok: bool = False) -> int:
    """text as an integer, 0x... as hex when hex_ok. A decimal over the
    interpreter's int/str digit limit gets a short error, not its digits."""
    try:
        return int(text, 16) if hex_ok and text.lower().startswith("0x") else int(text)
    except ValueError:
        # int() refuses a signed run of ASCII digits only over the limit
        digits = text.strip()
        digits = digits[1:] if digits[:1] in ("+", "-") else digits
        if digits.isascii() and digits.isdigit():
            raise argparse.ArgumentTypeError(
                f"decimal of {len(digits)} digits is over the interpreter's int/str digit "
                "limit" + ("; hex input (0x...) has no limit" if hex_ok else "")) from None
        shown = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
        raise argparse.ArgumentTypeError(f"not an integer: {shown}") from None


def _seed(text: str) -> int:
    n = _int(text, hex_ok=True)
    if n < 1:
        raise argparse.ArgumentTypeError("seed must be >= 1")
    return n


def _at_least(text: str, low: int) -> int:
    n = _int(text)
    if n < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
    return n


def _positive(text: str) -> int:
    return _at_least(text, 1)


def _nonneg(text: str) -> int:
    return _at_least(text, 0)


CONFIG_KEYS = ("bound", "budget", "workers")


def _read_config(path: str) -> dict:
    """key=value lines of CONFIG_KEYS with positive integer values; blank
    lines and # comments ignored."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            try:
                out[key] = _positive(value)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"{key}: {exc}") from None
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syrtree",
        description="3n+1 sequences via incoming-term matrices, the "
        "component connection tree, and bounded verification sweeps.",
    )
    # each command names its handler and the flags that bound its memory,
    # which main names when it runs out
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="generate a sequence from a seed")
    p_seq.add_argument("n", type=_seed, help="seed (decimal or 0x hex)")
    p_seq.add_argument("--kind", choices=("syr", "col"), default="col")
    p_seq.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_seq.add_argument("--max-steps", type=_nonneg, default=DEFAULT_MAX_STEPS)
    p_seq.add_argument("--no-terms", action="store_true",
                       help="omit the terms column/field in csv and json")
    p_seq.add_argument("--strict", action="store_true",
                       help="exit 3 when the budget is exhausted")
    p_seq.set_defaults(handler=_cmd_seq, memory_flag="--max-steps")

    p_loc = sub.add_parser("locate", help="matrix coordinate of an odd integer")
    p_loc.add_argument("n", type=_seed)
    p_loc.add_argument("--format", choices=("text", "json"), default="text")
    p_loc.set_defaults(handler=_cmd_locate, memory_flag="the seed")

    p_tree = sub.add_parser("tree", help="build and export the connection tree")
    p_tree.add_argument("--levels", type=_nonneg, default=2)
    p_tree.add_argument("--max-p", type=_nonneg, default=8)
    p_tree.add_argument("--max-value", type=_positive, default=None,
                        help="cap on connecting entry values (default: none)")
    p_tree.add_argument("--format", choices=("dot", "json"), default="dot")
    p_tree.add_argument("--include-black", action="store_true",
                        help="annotate entries that accept no connection")
    p_tree.set_defaults(handler=_cmd_tree, memory_flag="--levels or --max-value")

    p_ver = sub.add_parser("verify", help="run bounded checks and sweeps")
    p_ver.add_argument("--suite", choices=("all",) + verify.SUITE_IDS, default="all")
    p_ver.add_argument("--bound", type=_positive, default=None)
    p_ver.add_argument("--budget", type=_positive, default=None)
    p_ver.add_argument("--workers", type=_positive, default=None)
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.add_argument("--config", default=None,
                       help="key=value file with sweep defaults "
                       "(bound, budget, workers)")
    p_ver.set_defaults(handler=_cmd_verify, memory_flag="--bound")

    p_tab = sub.add_parser("table", help="regenerate the reference tables as CSV")
    p_tab.add_argument("--which", choices=("A", "B"), required=True)
    p_tab.add_argument("--rows", type=_positive, default=16)
    p_tab.set_defaults(handler=_cmd_table, memory_flag="--rows")
    return parser


def _cmd_seq(args) -> int:
    if args.kind == "syr":
        if args.n % 2 == 0:
            print("--kind syr needs an odd seed", file=sys.stderr)
            return 2
        seq = syr_seq_model(args.n, args.max_steps)
    else:
        seq = col_seq(args.n, args.max_steps)
    if args.format == "text":
        st = stats(seq)
        stop = "undecided" if st.stopping_time is None else st.stopping_time
        # formed first: a term over the int/str digit limit raises at max_term
        summary = (f"steps={seq.steps} stopping_time={stop} max_term={st.max_term} "
                   f"odd_steps={st.odd_steps}" + (" truncated" if seq.truncated else ""))
        sys.stdout.writelines(sequences.joined_decimals(seq.terms, " "))
        print()
        print(summary, file=sys.stderr)
    elif args.format == "json":
        sequences.to_json(seq, include_terms=not args.no_terms, out=sys.stdout)
        print()
    else:
        sequences.to_csv([seq], include_terms=not args.no_terms, out=sys.stdout)
    return 3 if seq.truncated and args.strict else 0


def _cmd_locate(args) -> int:
    if args.n % 2 == 0:
        print("locate needs an odd integer", file=sys.stderr)
        return 2
    a, p, q = locate(args.n)
    anchor = args.n == 1
    doc = {
        "a": a,
        "p": p,
        "q": q,
        "entry": args.n,
        "residue": residue6(args.n),
        "syr": 6 * q + a,
    }
    if args.format == "json":
        doc["trivial_cycle_anchor"] = anchor
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        line = " ".join(f"{k}={v}" for k, v in doc.items())
        print(line + (" trivial-cycle-anchor" if anchor else ""))
    return 0


def _cmd_tree(args) -> int:
    t = build_tree(args.levels, args.max_p, args.max_value,
                   include_black=args.include_black)
    sys.stdout.write(export(t, args.format).decode())
    return 0


def _check_text(c: verify.PropertyCheck) -> str:
    line = f"{c.id} {c.bound} {'PASS' if c.passed else 'FAIL'} ({c.elapsed:.2f}s)"
    for ce in c.counterexamples:
        line += "\n  counterexample: " + ", ".join(f"{k}={v}" for k, v in ce.items())
    return line


def _sweep_text(r: verify.SweepReport) -> str:
    mst = "-" if r.max_stopping_time is None else f"{r.max_stopping_time[0]}@{r.max_stopping_time[1]}"
    mex = "-" if r.max_excursion is None else f"{r.max_excursion[0]}@{r.max_excursion[1]}"
    line = (
        f"sweep [{r.lo},{r.hi}] budget={r.budget} decided={r.decided} "
        f"undecided={r.undecided} max_stopping_time={mst} max_excursion={mex} "
        f"{'PASS' if r.passed else 'UNDECIDED'} ({r.elapsed:.2f}s)"
    )
    if r.undecided_seeds:
        line += "\n  undecided seeds: " + " ".join(str(s) for s in r.undecided_seeds)
    return line


def _verify_options(args) -> Optional[str]:
    """Fill in bound, budget and workers not given as flags from the config
    file, then the environment, then the defaults; the error line for a bad
    file or value, else None."""
    env = os.environ.get(ENV_WORKERS)
    try:
        opts = {"bound": None, "budget": verify.SWEEP_BUDGET,
                "workers": _positive(env) if env else 1}
        if args.config:
            opts.update(_read_config(args.config))
    except argparse.ArgumentTypeError as exc:  # only the environment's value raises this
        return f"{ENV_WORKERS}: {exc}"
    except (OSError, ValueError) as exc:
        return f"config error: {exc}"
    for key in CONFIG_KEYS:
        if getattr(args, key) is None:
            setattr(args, key, opts[key])
    return None


def _cmd_verify(args) -> int:
    ids = verify.SUITE_IDS if args.suite == "all" else (args.suite,)
    checks, sweep = verify.run_suite(ids, args.bound, args.budget, args.workers)

    if args.format == "json":
        doc = {
            "checks": [c.as_dict() for c in checks],
            "sweep": sweep.as_dict() if sweep is not None else None,
        }
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        for c in checks:
            print(_check_text(c))
        if sweep is not None:
            print(_sweep_text(sweep))

    if any(not c.passed for c in checks):
        return 1
    if sweep is not None and sweep.undecided > 0:
        return 3
    return 0


def _cmd_table(args) -> int:
    out = sys.stdout
    if args.which == "A":
        out.write("q,8q+1,8q+3,8q+5,8q+7,S1,S3,S5,S7\n")
        for row in verify.table_a_rows(args.rows - 1):
            out.write(",".join(str(v) for v in row) + "\n")
    else:
        out.write("a,b,x,y,m\n")
        for cell in verify.table_b_cells(args.rows - 1):
            out.write(",".join(str(v) for v in cell) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # each token as repr, so that one with a line break stays on one line
        parser.error("unrecognized arguments: " + " ".join(map(repr, extra)))
    # the config file and the environment are input too: read them, like
    # the flags, before the int/str digit limit is lifted below
    error = _verify_options(args) if args.command == "verify" else None
    if error:
        print(error, file=sys.stderr)
        return 2
    # outputs are exact integers of any size; all decimal input was parsed
    # above, under the interpreter's int/str digit limit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    lost = False
    try:
        code = args.handler(args)
        sys.stdout.flush()  # in the guard: a reader gone early (| head) raises here
        return code
    except BrokenPipeError:  # fd 1 to devnull, so the last flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        print(f"{args.command}: interrupted", file=sys.stderr)
        return 130
    except MemoryError:
        pass  # reported below, once the frames that filled memory are freed
    except BrokenProcessPool:  # the OS killed a worker, most often for its memory
        lost = True
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    cause = "a worker process was lost" if lost else "out of memory"
    flag = "--bound or --workers" if lost else args.memory_flag
    print(f"{args.command}: {cause}; lower {flag}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
