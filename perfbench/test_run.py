"""Unit tests of the benchmark's own logic (no build, no executor).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import collections
import random
import unittest

import run


def job(name, digest="d0", status="done", round_=0, kind="k"):
    return {"name": name, "digest": digest, "status": status,
            "round": round_, "kind": kind, "ms": 1.0}


class PercentileRule(unittest.TestCase):
    def test_p90_refused_below_100_samples(self):
        with self.assertRaises(run.BenchError):
            run.percentile(list(range(99)), 0.9)

    def test_p90_with_100_samples(self):
        self.assertAlmostEqual(run.percentile(list(range(100)), 0.9), 89.1)

    def test_p50_needs_20_samples(self):
        with self.assertRaises(run.BenchError):
            run.percentile(list(range(19)), 0.5)
        self.assertEqual(run.percentile(list(range(21)), 0.5), 10)


class FailureAccounting(unittest.TestCase):
    refs = {"serve": {"a": ["d0"], "b": ["d0", "d1"]},
            "study": {"k": ["d0"]}}

    def test_all_done_and_matching(self):
        jobs = [job("a"), job("b", "d1")]
        self.assertEqual(run.failure_counts(jobs, self.refs, "serve"), (2, 0))

    def test_failed_rejected_and_error_frames_count(self):
        jobs = [job("a"), job("a", status="failed"),
                job("a", status="rejected"), job("b", status="error")]
        self.assertEqual(run.failure_counts(jobs, self.refs, "serve"), (4, 3))

    def test_digest_mismatch_counts(self):
        jobs = [job("a", "d9"), job("b", "d0")]
        self.assertEqual(run.failure_counts(jobs, self.refs, "serve"), (2, 1))

    def test_unknown_job_counts(self):
        jobs = [job("zzz")]
        self.assertEqual(run.failure_counts(jobs, self.refs, "serve"), (1, 1))

    def test_study_sources_must_agree(self):
        refs = {"study": {"k": ["d0", "d1"]}}
        same = [job("k:compact", "d0"), job("k:mmap", "d0")]
        differ = [job("k:compact", "d0"), job("k:mmap", "d1")]
        self.assertEqual(run.failure_counts(same, refs, "study"), (2, 0))
        self.assertEqual(run.failure_counts(differ, refs, "study"), (2, 1))

    def test_study_reference_key_drops_source(self):
        self.assertEqual(run.digest_key("study", "k:mmap"), "k")
        self.assertEqual(run.digest_key("serve", "llc:k@1:1,2"),
                         "llc:k@1:1,2")


class ServeMix(unittest.TestCase):
    def rounds(self, seed):
        plan = run.make_plan("serve", seed, 30, 0)
        return [r["clients"] for r in plan["rounds"]]

    def test_cold_share_is_a_quarter_for_every_seed(self):
        for seed in (1, 2, 7, 123):
            for clients in self.rounds(seed):
                kinds = collections.Counter(
                    j["kind"] for c in clients for j in c)
                total = sum(kinds.values())
                self.assertEqual(kinds["cold"], 18)
                self.assertEqual(kinds["cold"] / total, 0.25)

    def test_job_mix_does_not_depend_on_seed(self):
        def mix(seed):
            jobs = [j for c in self.rounds(seed)[0] for j in c]
            kinds = collections.Counter(j["kind"] for j in jobs)
            slow_keys = sorted((j["kind"], j["request"]["kernel"],
                                j["request"]["scale"]) for j in jobs
                               if j["kind"] in ("cold", "llc_new"))
            return kinds, slow_keys
        self.assertEqual(mix(1), mix(2))

    def test_plan_is_a_function_of_the_seed(self):
        self.assertEqual(self.rounds(5), self.rounds(5))
        self.assertNotEqual(self.rounds(5), self.rounds(6))

    def test_warm_jobs_follow_their_memo_state(self):
        for seed in range(20):
            clients = run.serve_round(random.Random(seed))["clients"]
            cold_order = []
            for jobs in clients:
                opened, ladders = set(), set()
                for j in jobs:
                    r = j["request"]
                    key = (r["kernel"], r["scale"])
                    if j["kind"] == "cold":
                        self.assertNotIn(key, opened)
                        opened.add(key)
                        cold_order.append(j["cold_index"])
                        continue
                    self.assertIn(key, opened)
                    if j["kind"] == "llc_new":
                        ladders.add(j["spec"])
                    elif j["kind"] == "result_memo":
                        self.assertIn(j["spec"], ladders)
                    elif j["kind"] == "pass_memo":
                        self.assertTrue(set(r["llc_assoc"]) <=
                                        {1, 2, 4, 8, 16})
            self.assertEqual(sorted(cold_order),
                             list(range(len(run.serve_keys()))))

    def test_each_client_records_in_global_order(self):
        for clients in self.rounds(3):
            for jobs in clients:
                idx = [j["cold_index"] for j in jobs if j["kind"] == "cold"]
                self.assertEqual(idx, sorted(idx))

    def test_every_generated_spec_has_a_reference_slot(self):
        specs = {j["spec"] for j in run.all_serve_jobs()}
        for seed in (1, 2, 3):
            for clients in self.rounds(seed):
                for c in clients:
                    for j in c:
                        self.assertIn(j["spec"], specs)


class Plans(unittest.TestCase):
    def test_every_serve_run_holds_enough_jobs_for_p90(self):
        for seconds in (1, 10, 30):
            plan = run.make_plan("serve", 1, seconds, 0)
            self.assertGreaterEqual(
                len(plan["rounds"]) * 2 * run.SERVE_JOBS_PER_CLIENT,
                run.MIN_JOBS)

    def test_round_count_is_fixed_by_seconds(self):
        self.assertEqual(len(run.make_plan("drivers", 1, 20, 0)["rounds"]), 4)
        self.assertEqual(len(run.make_plan("drivers", 1, 1, 1)["rounds"]), 2)

    def test_traced_runs_alternate_rounds(self):
        plan = run.make_plan("drivers", 1, 30, 1)
        traced = plan["traced_rounds"]
        self.assertEqual(traced.count(True), len(traced) // 2)
        self.assertFalse(any(run.make_plan("drivers", 1, 30, 0)
                             ["traced_rounds"]))

    def test_study_rounds_cover_both_sources(self):
        jobs = run.study_round(random.Random(1))
        pairs = collections.Counter(j["kernel"] for j in jobs)
        self.assertEqual(set(pairs.values()), {2})
        self.assertEqual(len(pairs), len(run.KERNELS))


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        def ev(i, parent, ts, dur, name):
            return {"name": name, "ts": ts, "dur": dur,
                    "args": {"id": i, "parent": parent}}
        events = [ev(1, 0, 0, 1000, "job"), ev(2, 1, 100, 300, "a"),
                  ev(3, 1, 300, 400, "b")]
        st = run.self_times(events)
        self.assertAlmostEqual(st["job"], 0.4)
        self.assertAlmostEqual(st["a"], 0.3)


if __name__ == "__main__":
    unittest.main()
