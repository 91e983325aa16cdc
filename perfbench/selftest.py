#!/usr/bin/env python3
"""Self-tests of the repository benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. A tiny run (1 s) of every workload, untraced and traced: exit 0, a
   correct JSON result, and exactly the metric names and units that
   BENCHMARK.json declares (end_to_end untraced, per_layer traced).
2. Negative test: one corrupted expected-results entry makes the run fail
   (non-zero exit, "correct": false).
3. A directory holding only BENCHMARK.json and perfbench/ (no simulator
   sources) makes run.py fail without printing a result.

Exits 0 when every test passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py: build + paths)

SCRATCH = os.path.join(ROOT, ".bench_run", "selftest")
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def tiny_runs(spec):
    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 w["name"], "--seed", "7", "--seconds", "1", "--trace", trace],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            res = last_json(p.stdout)
            what = "%s trace=%s" % (w["name"], trace)
            check(p.returncode == 0 and res is not None and res["correct"]
                  and res["failed"] == 0 and res["attempted"] >= 1,
                  what + ": exit 0, correct, nothing failed")
            if res is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, what + ": metric names and units match " + key)
            check(set(res.keys()) == {"correct", "attempted", "failed",
                                      "metrics"}, what + ": result keys")


def corrupted_expected():
    src = os.path.join(HERE, "expected_results.txt")
    bad = os.path.join(SCRATCH, "corrupted_expected.txt")
    corrupted = False
    with open(src) as f, open(bad, "w") as out:
        for line in f:
            fields = line.split()
            if not corrupted and fields and fields[0] == "dse_loose":
                fields[3] = str(int(fields[3]) + 1)  # activations
                line = " ".join(fields) + "\n"
                corrupted = True
            out.write(line)
    p = subprocess.run(
        [os.path.join(run.BUILD, "perfbench"), "--workload", "dse_loose",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--expected", bad,
         "--work-dir", os.path.join(SCRATCH, "neg")],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    res = last_json(p.stdout)
    check(corrupted and p.returncode != 0 and res is not None
          and not res["correct"] and res["failed"] > 0,
          "corrupted expected entry fails the run")


def bare_directory():
    bare = os.path.join(SCRATCH, "bare")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dse_loose",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(p.returncode != 0 and last_json(p.stdout) is None,
          "without the simulator sources run.py fails and prints no result")


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(os.path.join(SCRATCH, "bare"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not run.build():
        print("FAIL build")
        return 1
    tiny_runs(spec)
    corrupted_expected()
    bare_directory()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
