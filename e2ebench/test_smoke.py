#!/usr/bin/env python3
"""Smoke tests for the end-to-end benchmark.

Run from the root of a checkout:

    python3 e2ebench/test_smoke.py

Each workload runs briefly on a fixed seed: it must pass its correctness
checks, print exactly the metrics BENCHMARK.json names, and repeat every
deterministic work counter exactly on a second run. A second seed must
change the generated inputs and still pass.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

# Counters that depend only on the seed, never on the host or the timing.
DETERMINISTIC = [
    "net.events_per_op",
    "net.bytes_per_op",
    "net.peak_queue_depth",
    "net.faults.injected_per_op",
    "crypto.x25519.calls_per_op",
    "hpke.seal.calls_per_op",
    "hpke.open.calls_per_op",
    "crypto.rsa_blind_sign.calls_per_op",
    "crypto.aead.calls_per_op",
    "systems.retry.resends_per_op",
    "dns.resolver.cache_hit_share",
    "core.observations_per_op",
    "obs.flow.events_per_op",
    "common.allocs_per_op",
    "common.alloc_bytes_per_op",
]


def run(workload, seed, trace, seconds="1"):
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check_result(self, result, names):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]), sorted(names))

    def test_workloads(self):
        e2e = [m["name"] for m in SPEC["end_to_end"]]
        layers = [m["name"] for m in SPEC["per_layer"]]
        for w in SPEC["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                plain = run(name, 7, 0)
                self.check_result(plain, e2e)
                for m in e2e:
                    self.assertGreater(plain["metrics"][m]["value"], 0, m)

                first = run(name, 7, 1)
                second = run(name, 7, 1)
                other = run(name, 8, 1)
                for r in (first, second, other):
                    self.check_result(r, layers)
                    self.assertGreaterEqual(
                        r["metrics"]["trace.closure_share"]["value"], 0.9)
                for key in DETERMINISTIC:
                    self.assertEqual(first["metrics"][key]["value"],
                                     second["metrics"][key]["value"], key)
                self.assertNotEqual(first["metrics"]["net.bytes_per_op"],
                                    other["metrics"]["net.bytes_per_op"])

    def test_rejects_bad_arguments(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "ohttp_real", "--seed", "x",
                      "--seconds", "1", "--trace", "0"],
                     ["--workload", "ohttp_real", "--seed", "1",
                      "--seconds", "1", "--trace", "2"]):
            proc = subprocess.run(SPEC["command"] + args, cwd=ROOT,
                                  capture_output=True, text=True, timeout=600)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
