#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (two suites, small inputs).

Run from the root of a checkout:

    python3 perfbench/smoke.py

For every workload it runs perfbench/run.py with --tiny, untraced and
traced, and checks that:
  - the last line is the result object with exactly its four keys;
  - every end-to-end (untraced) or per-layer (traced) metric declared in
    BENCHMARK.json appears, with its declared unit, and nothing else;
  - the failure accounting is computed (the "failed_frac" line, and
    ok_frac = 1 - failed / attempted);
  - the traced run's per-layer self times sum to its wall time;
  - a second run with the same seed repeats every exact count, and a
    run with another seed generates other inputs.
Exits 1 on the first failed check.
"""

import json
import re
import subprocess
import sys

SECONDS = "1"


def run(workload, seed, trace):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
         "--tiny"],
        capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        sys.exit("%s seed %d trace %d exited %d:\n%s"
                 % (workload, seed, trace, out.returncode, out.stderr[-3000:]))
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check(cond, msg):
    if not cond:
        sys.exit("smoke: " + msg)


def exact_line(lines):
    return json.loads(next(l for l in lines if l.startswith("# exact "))[8:])


def main():
    spec = json.load(open("BENCHMARK.json"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    rows = [m["name"] for m in spec["per_layer"]
            if m["unit"] == "s" and not m["name"].startswith("trace.")]
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            lines, res = run(w, 1, trace)
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  "%s: result keys %s" % (w, sorted(res)))
            check(res["correct"], "%s trace %d: not correct:\n%s"
                  % (w, trace, "\n".join(lines[:-1])))
            check(res["attempted"] >= 1, w + ": nothing attempted")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == declared[trace], "%s trace %d: metrics differ from "
                  "BENCHMARK.json: %s" % (w, trace,
                                          set(got) ^ set(declared[trace])))
            frac = [l for l in lines if re.match(r"# work \d+, failed_frac ", l)]
            check(frac, w + ": no failed_frac line")
            m = res["metrics"]
            if trace == 0:
                ok = 1 - res["failed"] / res["attempted"]
                check(abs(m["ok_frac"]["value"] - ok) < 1e-12,
                      w + ": ok_frac does not match failed/attempted")
            else:
                total = sum(m[r]["value"] for r in rows)
                wall = m["trace.wall_s"]["value"]
                check(abs(total - wall) <= 1e-6 * wall,
                      "%s: layer rows sum to %.6f s, wall %.6f s"
                      % (w, total, wall))
            if trace == 0:
                first = exact_line(lines)
        again = exact_line(run(w, 1, 0)[0])
        check(again == first, w + ": exact counts differ between runs of "
              "seed 1: %s vs %s" % (first, again))
        other = exact_line(run(w, 2, 0)[0])
        check(other["inputs"] != first["inputs"],
              w + ": seed 2 generated the same inputs as seed 1")
        print("smoke: %s ok" % w, flush=True)
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
