#!/usr/bin/env python3
"""Smoke test of the benchmark at toy size.  Run from the repository root:

    python3 perfbench/smoke_test.py

Checks, for every workload of BENCHMARK.json:
  * an untraced run prints every end-to-end metric with its unit, and a
    traced run every per-layer metric, in a correct result line;
  * a deliberately corrupted reference trips the output gate (correct is
    false, at least one failed operation, exit code 1);
and, once:
  * seeds outside the C int range (above 2^32, negative) run correctly,
    since every input seed is derived into [0, 2^31);
  * the deterministic MinerStats counters of two traced runs are identical
    (each traced run also fails itself if --threads=1 and --threads=4
    counters differ);
  * in a directory holding only BENCHMARK.json and perfbench/ the benchmark
    exits non-zero without printing a result.
Exit code 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def check(cond, msg):
    print(("ok    " if cond else "FAIL  ") + msg, flush=True)
    if not cond:
        failures.append(msg)


def bench(workload, trace, *extra, cwd=ROOT, seed=7):
    args = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--scale", "toy"] + list(extra)
    p = subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    detail = {}
    for line in lines:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    return p.returncode, result, detail, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    counters = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result, detail, err = bench(name, trace)
            tag = "%s trace=%d" % (name, trace)
            check(code == 0 and result is not None and result["correct"],
                  tag + " runs correctly (exit %d) %s" % (code, err[-300:]))
            if result is None:
                continue
            check(set(result) == RESULT_KEYS, tag + " result keys")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  tag + " attempted/failed")
            want = [(m["name"], m["unit"]) for m in metrics]
            got = [(k, v.get("unit")) for k, v in result["metrics"].items()]
            check(got == want, tag + " prints every metric with its unit")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  tag + " metric values are numbers")
            if trace:
                counters[name] = detail.get("counters")
        code, result, _, _ = bench(name, 0, "--corrupt-reference")
        check(code == 1 and result is not None and not result["correct"] and
              result["failed"] >= 1,
              name + " corrupted reference trips the output gate")
        for seed in (18446744073709551617, -3):
            code, result, _, err = bench(name, 0, seed=seed)
            check(code == 0 and result is not None and result["correct"],
                  "%s seed %d runs correctly (exit %d) %s" %
                  (name, seed, code, err[-300:]))

    for name in ("mine_tight", "timecourse_append"):
        _, _, detail, _ = bench(name, 1)
        check(counters.get(name) is not None and
              detail.get("counters") == counters[name] and
              any(counters[name]),
              name + " counters repeat exactly across runs")

    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copyfile(os.path.join(ROOT, "BENCHMARK.json"),
                    os.path.join(bare, "BENCHMARK.json"))
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    code, result, _, _ = bench("mine_tight", 0, cwd=bare)
    check(code != 0 and result is None,
          "bare directory exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
