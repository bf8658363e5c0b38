#!/usr/bin/env python3
"""Smoke test of the journey benchmark.

Runs every workload untraced and traced at smoke sizes (a few hundred
records, one second) and asserts that:

  * the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics, the run is correct and no
    operation failed;
  * untraced runs print every end-to-end metric of BENCHMARK.json, and
    traced runs every per-layer metric, each with its declared unit;
  * the correctness checks ran (each run reports how many);
  * traced runs print the self-time table and write the span file, and
    the ingest table shows the stage sum next to process CPU.

Run from the repository root:  python3 perfbench/smoke_test.py
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (
            " ".join(cmd), done.returncode, done.stderr[-2000:]))
    return done.stdout.strip().splitlines()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s trace=%d" % (workload, trace)
            try:
                lines = run(workload, trace)
                result = json.loads(lines[-1])
                assert set(result) == {"correct", "attempted", "failed",
                                       "metrics"}, "result keys"
                assert result["correct"] is True, "run reported incorrect"
                assert result["failed"] == 0, "failed operations"
                assert result["attempted"] >= 1, "nothing attempted"
                metrics = result["metrics"]
                want = {m["name"]: m["unit"] for m in declared}
                assert set(metrics) == set(want), "metric names differ: %s" % (
                    sorted(set(metrics) ^ set(want)))
                for name, unit in want.items():
                    assert metrics[name]["unit"] == unit, "unit of " + name
                    assert isinstance(metrics[name]["value"], (int, float)), (
                        "value of " + name)
                checks = [l for l in lines if l.startswith("correctness checks run:")]
                assert checks, "no correctness-check summary"
                assert int(re.findall(r"\d+", checks[-1])[0]) > 0, "no checks ran"
                if trace:
                    text = "\n".join(lines)
                    assert "per-layer self time" in text, "no self-time table"
                    assert "tracing overhead" in text, "no tracing overhead"
                    spans = [l for l in lines if l.startswith("spans: ")]
                    assert spans and os.path.getsize(spans[-1][7:]) > 0, (
                        "no span file")
                    if workload == "ingest":
                        assert "ingest accounting: stage sum" in text, (
                            "no stage-vs-CPU accounting line")
                else:
                    for name in want:
                        assert metrics[name]["value"] > 0, name + " is not positive"
                print("ok   " + label)
            except (AssertionError, ValueError, IndexError,
                    subprocess.TimeoutExpired) as e:
                failures.append(label)
                print("FAIL %s: %s" % (label, e))
    if failures:
        print("%d smoke case(s) failed" % len(failures))
        return 1
    print("all smoke cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
