"""Tests of the benchmark's seeded inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import workloads as wl

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())


def dump(inputs):
    return json.dumps(inputs, sort_keys=True).encode()


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        for workload in wl.WORKLOADS:
            self.assertEqual(dump(wl.all_inputs(workload, 7)), dump(wl.all_inputs(workload, 7)))

    def test_different_seed_gives_different_streams_and_campaigns(self):
        for workload in wl.WORKLOADS:
            a, b = wl.all_inputs(workload, 7), wl.all_inputs(workload, 8)
            self.assertNotEqual(a["serve"]["streams"], b["serve"]["streams"], workload)
            self.assertNotEqual(
                [c["args"] for c in a["check"]], [c["args"] for c in b["check"]], workload
            )

    def test_every_input_has_a_recorded_output(self):
        for workload in wl.WORKLOADS:
            for seed in range(1, 41):
                inputs = wl.all_inputs(workload, seed)
                serve = inputs["serve"]
                for line in serve["warmup"] + [r for s in serve["streams"] for r in s]:
                    if line != wl.STATUS:
                        self.assertIn(line, EXPECTED["serve"])
                for c in inputs["check"]:
                    self.assertIn(" ".join(c["args"]), EXPECTED)
                self.assertIn(" ".join(inputs["shrink"]["args"]), EXPECTED)
                self.assertIn(" ".join(inputs["report"]["args"]), EXPECTED)

    def test_hot_small_warmup_covers_every_timed_key(self):
        for seed in (1, 2, 3):
            serve = wl.serve_inputs("hot-small", seed)
            warmed = set(serve["warmup"])
            timed = {r for s in serve["streams"] for r in s if r != wl.STATUS}
            self.assertLessEqual(timed, warmed)

    def test_cold_large_computes_every_key_exactly_once(self):
        for seed in (1, 2, 3):
            serve = wl.serve_inputs("cold-large", seed)
            audits, scenarios, _ = wl.cold_large_keys(serve["holes"])
            timed = {r for s in serve["streams"] for r in s}
            self.assertLessEqual(set(audits) | set(scenarios), timed)
            self.assertFalse(set(serve["warmup"]) & (set(audits) | set(scenarios)))

    def test_churn_memo_sees_one_seeded_cycle_repeated(self):
        spec = wl.WORKLOADS["churn"]["serve"]
        audits, _, _ = wl.churn_keys([])
        kinds = []
        for seed in (1, 2):
            stream = wl.serve_inputs("churn", seed)["streams"][0]
            seen = [r for r in stream if r in audits]
            cycle = seen[: len(audits)]
            self.assertEqual(sorted(cycle), sorted(audits))
            self.assertEqual(seen, cycle * spec["audit_cycles"])
            kinds.append((len(stream), stream.count(wl.STATUS), len(seen)))
        self.assertEqual(kinds[0], kinds[1])

    def test_schedule_counts_rotate_every_adversary_family_evenly(self):
        for workload, spec in wl.WORKLOADS.items():
            for name, _, _, schedules in spec["check"]:
                self.assertEqual(schedules % wl.ADVERSARY_FAMILIES, 0, (workload, name))


if __name__ == "__main__":
    unittest.main()
