"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 perfbench/selftest.py

They check that the correctness gate catches corrupted outputs, that every
name the benchmark emits is well formed and declared in BENCHMARK.json, and
that the traced and untraced runs cover the same workloads.
"""

import json
import re
import unittest
from dataclasses import replace

import probes
import run
import workloads as wl
from spans import Tracer

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((wl.HERE.parent / "BENCHMARK.json").read_text())


def corrupted(op, corrupt):
    return op._replace(run=lambda: corrupt(op.run()))


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        _seconds, cls.mods, cls.explore = run.setup("explore", 1)
        cls.ops = {op.label.split(" #")[0]: op for op in cls.explore.ops}

    def gate(self, *ops):
        """(mismatched, failed) after one pass over ops."""
        tally = run.Tally()
        tally.run_pass(wl.Workload(list(ops), {}))
        return tally.mismatched, sum(tally.failures.values())

    def test_flags_corrupted_sequence(self):
        def bump_term(out):
            doc = json.loads(out)
            doc["terms"][3] += 2
            return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

        def bump_csv_term(out):
            head, row = out.split("\n", 1)
            seed, stop, peak, terms = row.split(",")
            first, rest = terms.split(" ", 1)
            return f"{head}\n{seed},{stop},{peak},{int(first) + 2} {rest}"

        def drop_step(path):
            return path._replace(steps=path.steps[1:])

        self.assertEqual(self.gate(corrupted(self.ops["seq b4000 col/json"], bump_term)), (1, 1))
        self.assertEqual(self.gate(corrupted(self.ops["seq b4000 syr/csv"], bump_csv_term)), (1, 1))
        self.assertEqual(self.gate(corrupted(self.ops["path_to_root b4000"], drop_step)), (1, 1))

    def test_flags_corrupted_digest(self):
        # same values, different bytes
        self.assertEqual(self.gate(corrupted(self.ops["seq b4000 col/json"],
                                             lambda out: out.replace(",", ", ", 1))), (1, 1))
        for label in ("tree_json", "table_b"):
            self.assertEqual(self.gate(corrupted(self.ops[label], lambda out: out + "\n")), (1, 1))
        locate = next(op for op in self.explore.ops if op.label.startswith("locate"))
        self.assertEqual(self.gate(corrupted(locate, lambda out: out + " ")), (1, 1))

    def test_flags_corrupted_report(self):
        sweep = self.mods.verify.SweepReport(
            wl.SWEEP_LO, wl.SWEEP_HI, wl.SWEEP_BUDGET, wl.SWEEP_HI - wl.SWEEP_LO + 1, 0,
            wl.SWEEP_MAX_STOPPING_TIME, wl.SWEEP_MAX_EXCURSION)
        self.assertIsNone(wl.check_sweep(sweep))
        for field, value in (("max_excursion", (6727544495440, 10804224)),
                             ("max_stopping_time", (674, 10507503)), ("undecided", 1)):
            self.assertIsNotNone(wl.check_sweep(replace(sweep, **{field: value})), field)
        golden = wl.load_golden()
        check = wl.verify_all(self.mods, 1, golden).ops[0].check
        self.assertIsNone(check(golden["verify_all"]))
        self.assertIsNotNone(check(golden["verify_all"].replace('"seed":837799', '"seed":837798')))

    def test_over_limit_probe_is_the_only_failure(self):
        tally = run.Tally()
        tally.run_pass(self.explore)
        self.assertEqual(tally.mismatched, 0)
        self.assertEqual(len(tally.failures), 1)
        (failure,) = tally.failures
        self.assertTrue(failure.startswith(f"seq b{wl.PROBE_BITS} "), failure)


class NamesTest(unittest.TestCase):
    def test_declared_names_match_benchmark_json(self):
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(wl.WORKLOADS))

    def test_names_are_well_formed(self):
        names = (list(run.END_TO_END) + list(run.PER_LAYER) + list(wl.WORKLOADS)
                 + [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]])
        for name in names:
            self.assertRegex(name, NAME)
            self.assertEqual(NAME.fullmatch(name).group(), name)

    def test_traced_metrics_are_exactly_the_declared_ones(self):
        metrics = run.layer_metrics(Tracer(), 1, {}, {}, 1.0, {n: 1.0 for n in probes.NAMES})
        self.assertEqual(list(metrics), list(run.PER_LAYER))


class TracedRunTest(unittest.TestCase):
    def test_traced_and_untraced_runs_name_the_same_workloads(self):
        parser = run.build_parser()
        for workload in BENCHMARK["workloads"]:
            for trace in ("0", "1"):
                args = parser.parse_args(["--workload", workload["name"], "--seed", "1",
                                          "--seconds", "1", "--trace", trace])
                self.assertIn(args.workload, wl.WORKLOADS)

    def test_traced_pass_records_every_command(self):
        _s, mods, work = run.setup("explore", 2)
        plain, traced = run.Tally(), run.Tally()
        plain.run_pass(work)
        tracer = Tracer()
        tracer.install(mods)
        try:
            traced.run_pass(work, tracer)
        finally:
            tracer.uninstall()
        self.assertEqual((plain.attempted, plain.failures), (traced.attempted, traced.failures))
        names = {span[3] for span in tracer.spans}
        for name in ("cli.seq", "cli.locate", "cli.tree", "cli.table", "tree.path_to_root",
                     "sequences.to_json", "sequences.to_csv", "tree.export"):
            self.assertIn(name, names)
        self.assertEqual({span[2] for span in tracer.spans if span[1] is None},
                         {f"0.{i}" for i in range(len(work.ops))})


if __name__ == "__main__":
    unittest.main()
