"""Tests of the benchmark itself: oracles, generators, tracer, checking.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Command  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class TracerTest(unittest.TestCase):
    def nested(self, keep):
        # root [0,10] > a [1,4] > b [2,3];  root > c [5,9]
        t = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]), keep=keep)
        root = t.enter("root")
        a = t.enter("a")
        b = t.enter("b")
        t.exit(b)
        t.exit(a)
        c = t.enter("c")
        t.exit(c)
        t.exit(root)
        return t

    def test_self_time_is_duration_minus_children(self):
        t = self.nested(keep=100)
        self_s = {name: st[2] for name, st in t.stats.items()}
        self.assertEqual(self_s, {"root": 3, "a": 2, "b": 1, "c": 4})
        self.assertEqual(t.stats["root"][1], 10)
        self.assertEqual(
            t.spans,
            [["root", 0, 10, -1], ["a", 1, 4, 0], ["b", 2, 3, 1], ["c", 5, 9, 0]],
        )

    def test_span_cap_keeps_aggregates_exact(self):
        t = self.nested(keep=2)
        self.assertEqual(len(t.spans), 2)
        self.assertEqual(t.dropped, 2)
        self.assertEqual(t.stats["c"], [1, 4, 4])

    def test_merge_and_layer_metrics(self):
        one = {"stats": {"core.basis": [2, 1.0, 0.5]}, "counts": {"core.basis.calls": 2, "core.basis.hits": 1}}
        two = {"stats": {"core.basis": [2, 1.0, 0.25]}, "counts": {"core.basis.calls": 2}}
        metrics = tracing.layer_metrics(tracing.merge([one, two]))
        self.assertEqual(metrics["core.basis.calls"], 4)
        self.assertEqual(metrics["core.basis.self_s"], 0.75)
        self.assertEqual(metrics["core.basis.hit_ratio"], 0.25)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_commands(self):
        for name, gen in workloads.GENERATORS.items():
            self.assertEqual(gen(7), gen(7), name)
        self.assertNotEqual(workloads.eval_batch(7), workloads.eval_batch(8))
        self.assertNotEqual(workloads.betti_deep(7), workloads.betti_deep(8))

    def test_eval_batch_mix(self):
        commands = workloads.eval_batch(3)
        self.assertEqual(len(commands), 26)
        big = [c for c in commands if c.tag.endswith("-big")]
        # p90 of a run falls among the large powers, with a few rounds'
        # worth of samples beyond it
        self.assertEqual(len(big), 6)

    def test_betti_deep_mix(self):
        for seed in (1, 2, 3):
            tags = sorted(c.tag for c in workloads.betti_deep(seed))
            self.assertEqual(
                tags,
                sorted(("anchor-torsion", "anchor-quotient") + workloads.SEEDED_KINDS),
            )

    def test_large_powers_are_log_spaced(self):
        self.assertEqual(workloads._log_quantiles(2, 100, 10000), [316, 3162])


class OracleTest(unittest.TestCase):
    def test_closed_forms(self):
        self.assertEqual(workloads.expected_quotient_power(2, "U", 3), "16*q(U^6)")
        self.assertEqual(workloads.expected_quotient_power(2, "U", 1), "q(U^2)")
        self.assertEqual(workloads.expected_binomial(2), "2*A*U + U^2")
        self.assertEqual(workloads.expected_binomial(5), "5*A*U^4 + U^5")

    def test_table_matches_documented_example(self):
        cmd = workloads.betti_command("loop", 3, "Q", "D1", 9)
        self.assertEqual(
            cmd.expected,
            "# loop S^3, ring Q, group D1, degrees <= 9\n"
            "degree  rank  torsion  family         generators\n"
            "0       1     -        -              q(A)\n"
            "3       1     -        -              q(E)\n"
            "4       1     -        n-1+lambda_1   q(A*U^2)\n"
            "7       1     -        2n-1+lambda_1  q(U^2)\n"
            "8       1     -        n-1+lambda_2   q(A*U^4)\n",
        )

    def test_integral_torsion_rows(self):
        rows = workloads.expected_rows("loop", 4, "Z", None, 12)
        self.assertEqual(
            rows,
            [
                (0, 1, 0, None, ("A",)),
                (3, 1, 0, "lambda_1", ("sigma1",)),
                (4, 1, 0, None, ("E",)),
                (6, 0, 1, "n-1+lambda_1", ("A*Theta",)),
                (9, 1, 0, "lambda_2", ("sigma1*Theta",)),
                (10, 1, 0, "2n-1+lambda_1", ("Theta",)),
                (12, 0, 1, "n-1+lambda_2", ("A*Theta^2",)),
            ],
        )


class CheckingTest(unittest.TestCase):
    def test_corrupted_output_is_flagged(self):
        cmd = Command(("eval", "U^3", "--n", "3"), "U^3\n", "t")
        self.assertEqual(run.classify(cmd, 0, "U^3\n", "")[0], "ok")
        self.assertEqual(run.classify(cmd, 0, "U^4\n", "")[0], "wrong")
        self.assertEqual(run.classify(cmd, 0, "U^3", "")[0], "wrong")
        self.assertEqual(run.classify(cmd, 1, "", "ValueError")[0], "error")
        self.assertEqual(run.classify(cmd, None, "", "")[0], "timeout")

    def test_real_command_against_corrupted_oracle(self):
        run.BUILD.mkdir(exist_ok=True)
        good = Command(("eval", "U^3", "--n", "3"), "U^3\n", "good")
        bad = Command(("eval", "U^3", "--n", "3"), "U^4\n", "bad")
        result = run.run_round("eval-batch", [good, bad], time.perf_counter() + 60)
        self.assertEqual([o.status for o in result.outcomes], ["ok", "wrong"])

    def test_a_run_repeats_its_round(self):
        run.BUILD.mkdir(exist_ok=True)
        cmd = Command(("eval", "U^3", "--n", "3"), "U^3\n", "good")
        deadline = time.perf_counter() + 60
        self.assertEqual(len(run.run_rounds("eval-batch", [cmd], 0, deadline)), 1)
        rounds = run.run_rounds("eval-batch", [cmd], 1, deadline)
        self.assertGreater(len(rounds), 1)
        metrics = run.end_to_end(rounds, 0.1)
        self.assertEqual(metrics["wall_s"][0], statistics.median(r.wall_s for r in rounds))


class TracedChildTest(unittest.TestCase):
    def test_spans_nest_inside_their_parents(self):
        run.BUILD.mkdir(exist_ok=True)
        path = run.BUILD / "test-trace.json"
        argv = [run.PYTHON, str(BENCH / "child.py"), str(path), "eval", "mu^3", "--n", "3", "--group", "D1"]
        code, out, err, _s, _u = run.spawn(argv, 60)
        self.assertEqual((code, out), (0, "16*q(U^6)\n"), err)
        trace = json.loads(path.read_text())
        path.unlink()
        names = {s[0] for s in trace["spans"]}
        for name in ("expr.evaluate", "expr.parse", "equivariant.QElement.pow",
                     "equivariant.Quotient.product", "core.normalize", "cli.render"):
            self.assertIn(name, names)
        for name, start, end, parent in trace["spans"]:
            if parent >= 0:
                _p, p_start, p_end, _pp = trace["spans"][parent]
                self.assertTrue(p_start <= start <= end <= p_end, name)


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        e2e = run.end_to_end([run.Round([run.Outcome("t", (), 0.1, "ok")], 1.0, 1.0, 1024)], 0.2)
        self.assertEqual(set(e2e), {m["name"] for m in BENCHMARK["end_to_end"]})
        layers = set(tracing.layer_metrics({"stats": {}, "counts": {}}))
        layers |= {"cli.import_s", "trace.overhead_frac"}
        self.assertEqual(layers, {m["name"] for m in BENCHMARK["per_layer"]})
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(workloads.GENERATORS))

    def test_suite_names_match_loophom(self):
        sys.path.insert(0, str(BENCH.parent / "src"))
        from loophom import verify

        self.assertEqual(tracing.SUITE_NAMES, verify.SUITE_NAMES)


class BaselineTest(unittest.TestCase):
    """The seed commit's figures (baseline.json, written by record.py).

    ROADMAP.md quotes `verify all` at 51 s through the CLI (53 s in-process)
    and `eval U --n 3` start-up at 0.17 s, both on 2 cores with Python 3.11.
    The figures recorded here are lower (41 s and 0.13 s on a 2-vCPU VM)
    because the benchmark compiles the bytecode once into its own cache
    before timing, where the ROADMAP figures were taken on a tree whose
    bytecode state was not controlled; and a shared host's speed swings by
    up to 40% from one minute to the next.
    """

    SEED_COMMIT = "3d7f61020a52197035ccfc8bae9a1740b97d04f4"

    def setUp(self):
        self.base = json.loads((BENCH / "baseline.json").read_text())

    def test_recorded_on_the_seed_commit(self):
        self.assertEqual(self.base["env"]["git_sha"], self.SEED_COMMIT)
        self.assertEqual(len(self.base["seeds"]), 10)

    def test_roadmap_figures(self):
        roadmap = self.base["roadmap"]
        self.assertLess(abs(roadmap["verify_all_cli_s"] / 51.0 - 1), 0.3)
        self.assertLess(abs(roadmap["eval_startup_s"] / 0.17 - 1), 0.5)

    def test_every_workload_recorded(self):
        names = {m["name"] for m in BENCHMARK["end_to_end"]}
        for workload in workloads.GENERATORS:
            entry = self.base["workloads"][workload]
            self.assertEqual(set(entry["metrics"]), names)
        # the seed commit fails nothing outside eval-batch's known defect
        self.assertEqual(set(self.base["workloads"]["verify-all"]["failed"]), {0})
        self.assertEqual(set(self.base["workloads"]["betti-deep"]["failed"]), {0})

    def test_eval_failures_are_the_known_defect(self):
        # ROADMAP item 3: a coefficient past Python's 4300-digit int-to-str
        # limit makes `eval` exit 1; every eval-batch failure must be one
        entry = self.base["workloads"]["eval-batch"]
        for seed, failed, attempted in zip(self.base["seeds"], entry["failed"], entry["attempted"]):
            commands = workloads.eval_batch(seed)
            rounds, rest = divmod(attempted, len(commands))
            self.assertEqual(rest, 0, seed)
            over = [c for c in commands if len(c.expected.split("*", 1)[0]) > 4300]
            self.assertEqual(failed, rounds * len(over), seed)


if __name__ == "__main__":
    unittest.main()
