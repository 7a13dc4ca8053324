import decimal
import json
import random
import sys

import pytest

from syrtree.cli import main
from syrtree.sequences import stats, syr_seq_oracle


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
