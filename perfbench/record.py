"""Record the references the correctness gate compares against.

    python3 perfbench/record.py

writes ``perfbench/golden.json``: the ``verify --suite all`` JSON report and
the sha256 of every document the ``explore`` pools can emit. Run it only on
a commit whose outputs are known to be right; the benchmark then fails any
later commit whose outputs differ.
"""

import json

import workloads as wl


def main():
    mods = wl.import_syrtree()
    explore = {
        "seq_col_json": [wl.digest(wl.run_cli(mods, wl.seq_argv(wl.pool_seed(i), "col", "json")))
                         for i in range(wl.SEQ_POOL)],
        "seq_syr_csv": [wl.digest(wl.run_cli(mods, wl.seq_argv(wl.pool_seed(i), "syr", "csv")))
                        for i in range(wl.SEQ_POOL)],
    }
    for fmt in ("text", "json"):
        explore["locate_" + fmt] = [
            wl.digest(wl.run_cli(mods, wl.locate_argv(wl.pool_cell(i)[3], fmt)))
            for i in range(wl.CELL_POOL)]
    for key, argv in wl.DOCS.items():
        explore[key] = wl.digest(wl.run_cli(mods, argv))
    golden = {"verify_all": wl.run_cli(mods, wl.VERIFY_ARGV), "explore": explore}
    with open(wl.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
