import contextlib
import decimal
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syrtree import cli, verify
from syrtree.cli import main
from syrtree.sequences import collatz_expand, stats, syr_seq_oracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_syr_35(capsys):
    code, out, err = run(capsys, "seq", "35", "--kind", "syr")
    assert code == 0
    assert out == "35 53 5 1\n"
    assert "stopping_time=3" in err


def test_seq_col_35(capsys):
    code, out, _ = run(capsys, "seq", "35", "--kind", "col")
    assert code == 0
    assert out == "35 106 53 160 80 40 20 10 5 16 8 4 2 1\n"


def test_seq_col_1(capsys):
    assert run(capsys, "seq", "1")[1] == "1\n"


def test_seq_hex_seed(capsys):
    assert run(capsys, "seq", "0x23", "--kind", "syr")[1] == "35 53 5 1\n"


def test_seq_json(capsys):
    code, out, _ = run(capsys, "seq", "35", "--kind", "syr", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [35, 53, 5, 1]
    assert doc["stats"]["stopping_time"] == 3
    assert doc["kind"] == "syr"


def test_seq_csv(capsys):
    code, out, _ = run(capsys, "seq", "40", "--format", "csv", "--no-terms")
    assert code == 0
    assert out == "seed,stopping_time,max_term\n40,8,40\n"


def test_seq_prints_integers_past_the_str_digit_limit(capsys):
    n = random.Random(16000).getrandbits(16000) | (1 << 15999) | 1
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "seq", hex(n), "--kind", "syr", "--format", "json",
                       "--no-terms")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    # Decimal parses decimal digits without the int/str limit
    doc = json.loads(out, parse_int=lambda text: int(decimal.Decimal(text)))
    want = stats(syr_seq_oracle(n))
    assert doc["seed"] == n
    assert doc["stats"] == {"stopping_time": want.stopping_time,
                            "max_term": want.max_term, "odd_steps": want.odd_steps}


@pytest.mark.parametrize("kind", ["col", "syr"])
def test_seq_prints_the_terms_str_prints(capsys, kind):
    # every format, from a reference built term by term with str() and json.dumps
    n = random.Random(4000).getrandbits(4000) | (1 << 3999) | 1
    seq = syr_seq_oracle(n)
    if kind == "col":
        seq = collatz_expand(seq)
    st = stats(seq)
    doc = {"kind": kind, "seed": n, "steps": seq.steps, "truncated": False,
           "stats": {"stopping_time": st.stopping_time, "max_term": st.max_term,
                     "odd_steps": st.odd_steps}}
    head = f"{n},{st.stopping_time},{st.max_term}"
    terms = " ".join(str(t) for t in seq.terms)
    want = {
        ("text", False): terms + "\n",
        ("text", True): terms + "\n",  # --no-terms leaves the text format alone
        ("json", True): json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
        ("json", False): json.dumps(dict(doc, terms=seq.terms), sort_keys=True,
                                    separators=(",", ":")) + "\n",
        ("csv", True): "seed,stopping_time,max_term\n" + head + "\n",
        ("csv", False): "seed,stopping_time,max_term,terms\n" + head + "," + terms + "\n",
    }
    for (fmt, no_terms), out in want.items():
        argv = ["seq", hex(n), "--kind", kind, "--format", fmt] + ["--no-terms"] * no_terms
        assert run(capsys, *argv)[:2] == (0, out)


SEQ_SEEDS = {
    "1": "1", "27": "27", "96": "96",
    "3005-bit even": str((random.Random(3005).getrandbits(3000) | 1 << 2999) << 5),
    "4000-bit odd": hex(random.Random(4000).getrandbits(4000) | 1 << 3999 | 1),
}


def seq_outputs_digest(run_cli, seed, kind):
    """sha256 over the argv, exit code, stdout and stderr of seq with seed and
    kind, in each format, with and without --no-terms and --strict, at
    --max-steps 7 and the default; run_cli(*argv) gives (code, out, err)."""
    digest = hashlib.sha256()
    for fmt, no_terms, steps, strict in itertools.product(
            ("text", "json", "csv"), (False, True), ("7", None), (False, True)):
        argv = (["seq", seed, "--kind", kind, "--format", fmt] + ["--no-terms"] * no_terms
                + ["--max-steps", steps] * (steps is not None) + ["--strict"] * strict)
        code, out, err = run_cli(*argv)
        for part in (" ".join(argv), str(code), out, err):
            digest.update(part.encode() + b"\0")
    return digest.hexdigest()


# seq_outputs_digest of the CLI that joined each document whole before one
# print; writing it in pieces must not change a byte
SEQ_DIGESTS = {
    ("1", "syr"): "f4870de7f064838d46cce45c093c1dd22da0f0a781d22ba988f622dd545977a2",
    ("1", "col"): "dba1b90ec7efa68a7ddbc71872d2d11b021a43e698b95886145f6e8bceb863ef",
    ("27", "syr"): "920d097e7817949830c2e6cdc15d33c20c79f9b27eaeec01d8aae39463bd4fc6",
    ("27", "col"): "5ffdb8309d3a4324e233ecf7b892fe2259d51fa7015dff9ee91969f4b6af4657",
    ("96", "syr"): "a4c230f92997215d7edc65daa7c6f5d3f88d5061a958a1e4380dc2a9022334e5",
    ("96", "col"): "4d653991b89dc77cd866aede0326425b82cb8748d17aa9fa233ab05ff551e231",
    ("3005-bit even", "syr"): "0aefb07ce5f6cd30e581bf57cb7cf89296c19586fd2bd1d22665ee73cf6967e9",
    ("3005-bit even", "col"): "3606f84dac7580d2bf3516686f24c8ef92b3616d58ecfa4f70d1b06faf5afb48",
    ("4000-bit odd", "syr"): "763130b157abbfe64b169f0bdd1fae3f6b03950a550420133f2e499794f473f2",
    ("4000-bit odd", "col"): "76f3372cf7f3c937fab15d4fda6d0af80f46ade959234aa8cca0a37152e90a2b",
}


@pytest.mark.parametrize("seed, kind", list(SEQ_DIGESTS))
def test_seq_outputs_are_byte_identical(seed, kind, capsys):
    digest = seq_outputs_digest(lambda *argv: run(capsys, *argv), SEQ_SEEDS[seed], kind)
    assert digest == SEQ_DIGESTS[seed, kind]


def test_seq_over_limit_decimal_is_a_short_error(capsys):
    digits = "7" * (sys.get_int_max_str_digits() + 101)
    with pytest.raises(SystemExit) as exc:
        main(["seq", digits])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err) < 1024
    assert "hex" in err


def test_seq_strict_budget(capsys):
    assert run(capsys, "seq", "27", "--max-steps", "10", "--strict")[0] == 3
    assert run(capsys, "seq", "27", "--max-steps", "10")[0] == 0


def test_seq_syr_rejects_even(capsys):
    assert run(capsys, "seq", "40", "--kind", "syr")[0] == 2


def test_seq_rejects_zero():
    with pytest.raises(SystemExit) as exc:
        main(["seq", "0"])
    assert exc.value.code == 2


def test_locate_35(capsys):
    code, out, _ = run(capsys, "locate", "35")
    assert code == 0
    assert out == "a=5 p=0 q=8 entry=35 residue=5 syr=53\n"


def test_locate_853(capsys):
    assert run(capsys, "locate", "853")[1] == "a=5 p=4 q=0 entry=853 residue=1 syr=5\n"


def test_locate_1_anchor(capsys):
    code, out, _ = run(capsys, "locate", "1")
    assert out == "a=1 p=0 q=0 entry=1 residue=1 syr=1 trivial-cycle-anchor\n"


def test_locate_json(capsys):
    _, out, _ = run(capsys, "locate", "35", "--format", "json")
    assert json.loads(out) == {
        "a": 5, "p": 0, "q": 8, "entry": 35, "residue": 5, "syr": 53,
        "trivial_cycle_anchor": False,
    }


def test_locate_rejects_even(capsys):
    assert run(capsys, "locate", "6")[0] == 2


def test_tree_dot_level1(capsys):
    code, out, _ = run(capsys, "tree", "--levels", "1", "--max-p", "4",
                       "--format", "dot")
    assert code == 0
    assert '"I1(p,0)" -> "I5(p,0)" [label="via=5 p=1"];' in out
    assert '"I5(p,56)"' in out


def test_tree_level0(capsys):
    _, out, _ = run(capsys, "tree", "--levels", "0", "--format", "json")
    doc = json.loads(out)
    assert len(doc["levels"]) == 1


def test_tree_json_level2(capsys):
    _, out, _ = run(capsys, "tree", "--levels", "2", "--max-p", "4",
                    "--format", "json")
    doc = json.loads(out)
    nodes = {(n["a"], n["q"]) for lvl in doc["levels"] for n in lvl["nodes"]}
    assert {(1, 2), (5, 8), (1, 142)} <= nodes


def test_table_a(capsys):
    code, out, _ = run(capsys, "table", "--which", "A")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q,8q+1,8q+3,8q+5,8q+7,S1,S3,S5,S7"
    assert len(lines) == 17
    assert lines[2] == "1,9,11,13,15,7,17,5,23"


def test_table_b(capsys):
    _, out, _ = run(capsys, "table", "--which", "B")
    assert "1,5,2,1,24" in out.splitlines()


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "L2.1", "--bound", "500")
    assert code == 0
    assert "L2.1" in out and "PASS" in out


def test_verify_sweep_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sweep", "--bound", "100",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sweep"]["decided"] == 100
    assert doc["sweep"]["max_stopping_time"] == {"steps": 118, "seed": 97}


def test_verify_exit_3_on_undecided(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sweep", "--bound", "30",
                       "--budget", "10")
    assert code == 3
    assert "UNDECIDED" in out


def test_verify_config_file(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("# sweep defaults\nbound = 50\nbudget=25\nworkers=1\n")
    code, out, _ = run(capsys, "verify", "--suite", "sweep",
                       "--config", str(cfg), "--format", "json")
    assert code == 3  # seed 27 needs 111 > 25 steps
    doc = json.loads(out)
    assert doc["sweep"]["hi"] == 50
    assert doc["sweep"]["budget"] == 25
    assert 27 in doc["sweep"]["undecided_seeds"]


def test_verify_flag_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("bound=50\n")
    _, out, _ = run(capsys, "verify", "--suite", "sweep", "--bound", "10",
                    "--config", str(cfg), "--format", "json")
    assert json.loads(out)["sweep"]["hi"] == 10


@pytest.mark.parametrize("config, env", [
    ("bound=abc\n", None),
    ("bound=-5\n", None),
    ("bonud=5\n", None),
    ("workers=0\n", None),
    ("a\x0bb\n", None),  # a line break that str.splitlines sees, echoed as repr
    (None, "abc"),
    (None, "-3"),
])
def test_verify_rejects_bad_config_and_env(capsys, monkeypatch, tmp_path, config, env):
    argv = ["verify", "--suite", "L2.1"]
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    if env is not None:
        monkeypatch.setenv("SYRTREE_WORKERS", env)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("where, prefix, problem", [
    ("flag", "", "digit limit"),
    ("flag", "+", "digit limit"),
    ("flag", "x", "not an integer"),
    ("config", "", "digit limit"),
    ("env", "", "digit limit"),
])
def test_over_limit_decimal_value_is_a_short_error(capsys, monkeypatch, tmp_path, where,
                                                   prefix, problem):
    # the config file and the environment used to be read with the limit
    # lifted, so an over-limit value was taken as given
    digits = prefix + "7" * (sys.get_int_max_str_digits() + 101)
    argv = ["verify", "--suite", "L2.1"]
    if where == "flag":
        argv += ["--workers", digits]
    elif where == "config":
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"workers={digits}\n")
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("SYRTREE_WORKERS", digits)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag after its usage lines
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    if where != "flag":
        assert len(lines) == 1
    assert problem in lines[-1]
    assert len(lines[-1].encode()) < 200
    assert "7" * 100 not in err


def test_workers_env_default(capsys, monkeypatch):
    monkeypatch.setenv("SYRTREE_WORKERS", "2")
    code, out, _ = run(capsys, "verify", "--suite", "sweep", "--bound", "200",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["sweep"]["decided"] == 200


def test_usage_error_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "T9.99"])
    assert exc.value.code == 2


def test_usage_error_bad_format():
    with pytest.raises(SystemExit) as exc:
        main(["tree", "--format", "csv"])
    assert exc.value.code == 2



# Every input path at once: flags, config lines and SYRTREE_WORKERS, drawn
# valid and invalid. Valid values are capped, which bounds each example's work.

INT_LIMIT = sys.get_int_max_str_digits()
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
OVER_LIMIT = ("7" * (INT_LIMIT + 1), "-" + "7" * (INT_LIMIT + 1), "٧" * (INT_LIMIT + 1))
NOT_INTEGERS = ("", " ", "\n", "\x0b", "x", "1.5", "1e3", "0x", "5-", "--5", "٣x", *OVER_LIMIT)


def integers(low, cap, hex_ok=False):
    """(good, bad): strategies of an integer as a flag, config line or env
    var spells it. good reads as a value in [low, cap], so only valid values
    are capped; bad is out of range as often as it is no integer at all."""
    spellings = (str, "+{}".format, " {} ".format, "_".join, lambda d: d.translate(ARABIC_INDIC),
                 *((lambda d: hex(int(d)),) if hex_ok else ()))
    good = st.builds(lambda v, spell: spell(str(v)),
                     st.sampled_from((low, cap)) | st.integers(low, cap), st.sampled_from(spellings))
    if low == 0:
        good |= st.just("-0")
    bad = st.sampled_from((str(low - 1), f"-1{cap}")) | st.sampled_from(
        (*NOT_INTEGERS, *(() if hex_ok else (hex(cap),))))
    return good, bad


def choice(*options):
    return st.sampled_from(options), st.just("nope")


FLAGS = {  # flag -> (good, bad) values, or None for a switch
    "seq": {"--kind": choice("syr", "col"), "--format": choice("text", "json", "csv"),
            "--max-steps": integers(0, 500), "--no-terms": None, "--strict": None},
    "locate": {"--format": choice("text", "json")},
    "tree": {"--levels": integers(0, 3), "--max-p": integers(0, 8),
             "--max-value": integers(1, 10**6), "--format": choice("dot", "json"),
             "--include-black": None},
    "verify": {"--suite": choice("all", *verify.SUITE_IDS), "--bound": integers(1, 50),
               "--budget": integers(1, 1000), "--workers": integers(1, 4),
               "--format": choice("text", "json")},
    "table": {"--which": choice("A", "B"), "--rows": integers(1, 100)},
}
SEED = integers(1, 2**64, hex_ok=True)
WORKERS = integers(1, 4)
# the parts of each command's input that can be bad
PARTS = {command: ("command", *(("seed",) if command in ("seq", "locate") else ()),
                   *(f for f, values in flags.items() if values), "stray",
                   *(("env", "config") if command == "verify" else ()))
         for command, flags in FLAGS.items()}
# SYRTREE_WORKERS is read by verify alone, where an empty one counts as unset
ANY_WORKERS = st.none() | WORKERS[0] | WORKERS[1]
GOOD_WORKERS = st.sampled_from((None, "")) | WORKERS[0]
BAD_WORKERS = WORKERS[1].filter(bool)
CONFIG_FAULTS = st.sampled_from(("missing", "directory", "line", "utf-8"))
SETTINGS = {key: integers(1, cap) for key, cap in (("bound", 50), ("budget", 1000), ("workers", 4))}
GOOD_LINES = st.lists(st.one_of(
    *(values[0].map(f"{key}=".__add__) for key, values in SETTINGS.items()),
    st.sampled_from(("", "# bound=0", "workers = 2  # two"))), max_size=3)
BOUND_LINE = SETTINGS["bound"][0].map("bound=".__add__)
BAD_LINE = st.one_of(*(values[1].map(f"{key}=".__add__) for key, values in SETTINGS.items()),
                     st.sampled_from(("bonud=5", "bound", "=5", "bound\x0b5", "a b")))
# a token no parser takes, echoed in the error line
STRAY = st.sampled_from(("x", " ", "\n", "a\nb", "\x0b"))


@st.composite
def cli_inputs(draw, command, bad):
    """(argv, SYRTREE_WORKERS or None, config) for command with its part
    bad, or with no part bad when bad is None. One bad part at a time, so
    that no other error hides it. config is None, the file's bytes,
    "missing" or "directory"."""
    left_out = bad in ("command", "seed", "--which") and draw(st.booleans())
    argv = [] if left_out and bad == "command" else ["bogus" if bad == "command" else command]
    if "seed" in PARTS[command] and not (left_out and bad == "seed"):
        argv.append(draw(SEED[bad == "seed"]))
    given = [flag for flag in FLAGS[command]
             if flag in (bad, "--which") or draw(st.booleans())]
    for flag in given:
        values = FLAGS[command][flag]
        if values is None:
            argv.append(flag)
        elif not (left_out and bad == flag):
            argv += [flag, draw(values[bad == flag])]
    if bad == "stray":
        argv.append(draw(STRAY))
    if command != "verify":
        return argv, draw(ANY_WORKERS), None
    env = draw(BAD_WORKERS if bad == "env" else GOOD_WORKERS)
    # without --bound the suite runs at the file's bound, never at its
    # default bounds
    lines = draw(GOOD_LINES) + ([] if "--bound" in given else [draw(BOUND_LINE)])
    fault = draw(CONFIG_FAULTS) if bad == "config" else None
    if fault == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(BAD_LINE))
    if fault in ("missing", "directory"):
        return argv, env, fault
    if fault or "--bound" not in given or draw(st.booleans()):
        return argv, env, "".join(line + "\n" for line in lines).encode() + (
            b"\xff\n" if fault == "utf-8" else b"")
    return argv, env, None


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


@pytest.mark.parametrize("command, bad", [
    (command, bad) for command, parts in PARTS.items() for bad in (None, *parts)],
    ids=lambda part: part.lstrip("-") if part else "valid")
def test_every_input_ends_in_an_exit_code_and_one_error_line(config_dir, command, bad):
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(cli_inputs(command, bad))
    def check(case):
        argv, env, config = case
        if config is not None:
            path = {"missing": config_dir / "missing.cfg", "directory": config_dir}.get(
                config, config_dir / "syrtree.cfg")
            if isinstance(config, bytes):
                path.write_bytes(config)
            argv = argv + ["--config", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            if env is None:
                mp.delenv(cli.ENV_WORKERS, raising=False)
            else:
                mp.setenv(cli.ENV_WORKERS, env)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code, usage = main(argv), False
                except SystemExit as exc:  # argparse, after its usage lines
                    code, usage = exc.code, True
        err = err.getvalue()
        assert "Traceback" not in err
        assert code in (0, 1, 2, 3)
        assert bad is None or code == 2, f"a bad {bad} ended in exit {code}"
        if code == 2:
            lines = err.splitlines()
            if usage:
                lines = [line for line in lines if not line.startswith(("usage: ", " "))]
            assert len(lines) == 1, err

    with pytest.MonkeyPatch.context() as mp:  # one CPU: no example starts a pool
        mp.setattr(verify.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        check()


SRC = Path(__file__).resolve().parents[1] / "src"
AS_LIMIT = 128 * 2**20  # bytes of address space: about 100 MB over start-up


def _cli_env():
    """The environment for a syrtree.cli subprocess that imports this checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
@pytest.mark.parametrize("argv, flag", [
    (["tree", "--levels", "14", "--max-p", "8", "--format", "json"], "--levels"),
    (["verify", "--suite", "T2.9", "--bound", str(10**12), "--workers", "1"], "--bound"),
])
def test_out_of_memory_is_a_one_line_usage_error(argv, flag):
    # both used to end in a MemoryError traceback with exit 1, which means
    # "check failed"
    proc = subprocess.run([sys.executable, "-m", "syrtree.cli"] + argv, env=_cli_env(),
                          preexec_fn=_limit_address_space, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert "out of memory" in proc.stderr and flag in proc.stderr


@pytest.mark.parametrize("argv", [
    ["seq", SEQ_SEEDS["4000-bit odd"], "--format", "json"],
    ["seq", SEQ_SEEDS["4000-bit odd"], "--format", "text"],
    ["table", "--which", "A", "--rows", "100000"],
], ids=["seq-json", "seq-text", "table"])
def test_a_closed_stdout_ends_quietly_with_exit_141(argv):
    # each writes megabytes, past what the pipe holds; 141 is 128 + SIGPIPE,
    # as 130 is 128 + SIGINT, and exit 1 would read as a failed check
    with subprocess.Popen([sys.executable, "-m", "syrtree.cli"] + argv, env=_cli_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert len(proc.stdout.read(5)) == 5
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""
        finally:
            proc.kill()


def _peak_rss(argv):
    """Exit code and peak RSS (ru_maxrss) of syrtree <argv>, stdout discarded."""
    with subprocess.Popen([sys.executable, "-m", "syrtree.cli"] + argv, env=_cli_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as proc:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="reads a child's peak RSS from wait4")
def test_printing_a_sequence_costs_about_what_its_terms_hold():
    # the benchmark's 16000-bit probe: its 39,411 syr terms hold 43 MB as
    # ints and print as 94 MB of decimal text; a document built whole before
    # one print peaked at 5.6 times the --no-terms run
    seed = hex(random.Random("explore-probe").getrandbits(16000) | (1 << 15999) | 1)
    code, bare = _peak_rss(["seq", seed, "--kind", "syr", "--format", "json", "--no-terms"])
    assert code == 0
    for fmt in ("json", "csv", "text"):
        code, peak = _peak_rss(["seq", seed, "--kind", "syr", "--format", fmt])
        assert code == 0
        assert peak < 1.3 * bare, fmt
    # col expands its terms before printing, so its --no-terms run holds them all
    col = ["seq", seed, "--kind", "col", "--format", "json", "--max-steps", "30000"]
    code, bare = _peak_rss(col + ["--no-terms"])
    assert code == 0
    code, peak = _peak_rss(col)
    assert code == 0
    assert peak < 1.1 * bare


@pytest.mark.parametrize("argv, flag", [
    (["seq", "7"], "--max-steps"),
    (["locate", "7"], "the seed"),
    (["tree"], "--levels or --max-value"),
    (["verify", "--suite", "L2.1"], "--bound"),
    (["table", "--which", "A"], "--rows"),
])
def test_out_of_memory_names_each_commands_flag(argv, flag, capsys, monkeypatch):
    def out_of_memory(_args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_" + argv[0], out_of_memory)
    assert run(capsys, *argv) == (2, "", f"{argv[0]}: out of memory; lower {flag}\n")


def test_lost_worker_is_a_one_line_usage_error(capsys, monkeypatch):
    # the pool raises this when the OS kills a worker; it used to end in a
    # traceback with exit 1, which means "check failed"
    def lost(*_args):
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")

    monkeypatch.setattr(verify, "_run_tasks", lost)
    code, out, err = run(capsys, "verify", "--suite", "T2.9", "--workers", "2")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert "--bound" in err and "--workers" in err


def _group(group: int) -> list:
    """Each process of a process group as (pid, state), read from /proc/<pid>/stat."""
    procs = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        with contextlib.suppress(OSError):  # the process ended meanwhile
            stat = Path(f"/proc/{pid}/stat").read_text()
            # the fields after the parenthesized command: state, ppid, pgrp
            state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
            if int(pgrp) == group:
                procs.append((pid, state))
    return procs


def _describe_group(group: int) -> str:
    """One line per process of a group: pid, state, wchan and command line."""
    lines = []
    for pid, state in _group(group):
        wchan = cmdline = "?"
        with contextlib.suppress(OSError):
            wchan = Path(f"/proc/{pid}/wchan").read_text()
            cmdline = Path(f"/proc/{pid}/cmdline").read_text(errors="replace").replace("\0", " ")
        lines.append(f"{pid} {state} {wchan} {cmdline}")
    return "\n".join(lines)


# runs the CLI under the start method that Linux defaults to from Python 3.14
FORKSERVER_MAIN = ("import multiprocessing, sys; "
                   "multiprocessing.set_start_method('forkserver'); "
                   "from syrtree import cli; sys.exit(cli.main(sys.argv[1:]))")


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="reads /proc, and needs a pool of two workers")
@pytest.mark.parametrize("start, method", [
    (["-m", "syrtree.cli"], multiprocessing.get_all_start_methods()[0]),  # the default
    (["-c", FORKSERVER_MAIN], "forkserver"),
], ids=["default", "forkserver"])
def test_ctrl_c_is_one_line_and_exit_130(start, method):
    # a terminal sends Ctrl-C's SIGINT to the whole foreground process group,
    # pool workers included
    proc = subprocess.Popen(
        [sys.executable] + start + ["verify", "--suite", "sweep",
                                    "--bound", str(10**8), "--workers", "2"],
        env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    group = proc.pid  # a new session's leader leads its own process group
    # the CLI and two workers, then spawn's and forkserver's resource
    # tracker, then forkserver's fork server
    size = 3 + (method != "fork") + (method == "forkserver")
    try:
        deadline = time.monotonic() + 60
        while proc.poll() is None and len(_group(group)) < size:
            assert time.monotonic() < deadline, "the pool never started"
            time.sleep(0.01)
        os.killpg(group, signal.SIGINT)
        try:
            out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            pytest.fail("no exit 30 s after SIGINT; pid, state, wchan, command line:\n"
                        + _describe_group(group))
        assert proc.returncode == 130
        assert out == ""
        assert err == "verify: interrupted\n"
        # the workers were ended, not waited for: each shard takes tens of seconds
        deadline = time.monotonic() + 5
        with pytest.raises(ProcessLookupError):
            while time.monotonic() < deadline:
                os.killpg(group, 0)
                time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(group, signal.SIGKILL)
        proc.communicate(timeout=30)
