"""Steadiness of the benchmark on one commit: two sets of runs, compared.

    python3 perfbench/steady.py

Run from the root of a checkout.  It runs BENCHMARK.json's command ten
times per workload in each of two sets, each run with another seed (run i
of set k uses seed 1000*k + i), and prints, for each workload and
end-to-end metric, each set's median and quartiles, the spread
(q3 - q1) / median, and whether the sets agree: every spread within the
metric's bound, and the two medians apart by no more than the bound, as a
share of the first, in either direction.  setup_s is held to the medians'
test only: it times a 0.17-s import, which guards against work moved into
set-up, and its spread over runs follows the host's speed drift (0.15-0.37
measured), which a median of a few imports per run cannot remove.  It also
compares the share of failed operations between the sets.  The exit
code is 0 when everything agrees.  A summary goes to
.bench_reports/steady.json.
"""

import json
import os
import statistics
import subprocess
import sys

RUNS = 10  # runs per workload in each set
SETS = 2


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in names}
    for k in range(SETS):
        for i in range(1, RUNS + 1):
            for w in names:
                res = run_once(bench["command"], w, 1000 * (k + 1) + i, bench["run_seconds"])
                results[w][k].append(res)
                print(f"set {k + 1} run {i} {w}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} " + " ".join(
                          f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                      flush=True)

    ok = True
    summary = {}
    for w in names:
        first, second = results[w]
        shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in (first, second)]
        same_share = shares[0] == shares[1] and len(shares[0]) == 1
        correct = all(r["correct"] for r in first + second)
        print(f"\n{w}: failed share per set {shares} ({'equal' if same_share else 'DIFFERENT'}),"
              f" all correct: {correct}")
        ok &= same_share and correct
        summary[w] = {"failed_share": shares, "correct": correct, "metrics": {}}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [quartiles([r["metrics"][name]["value"] for r in runs])
                     for runs in (first, second)]
            spreads = [(q3 - q1) / med for q1, med, q3 in stats]
            drift = (stats[1][1] - stats[0][1]) / stats[0][1]
            agree = abs(drift) <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok &= agree
            summary[w]["metrics"][name] = {"quartiles": stats, "spreads": spreads,
                                           "drift": drift, "agree": agree}
            cells = "  ".join(f"set {k + 1}: median {med:.4g} [{q1:.4g}, {q3:.4g}] "
                              f"spread {s:.3f}" for k, ((q1, med, q3), s)
                              in enumerate(zip(stats, spreads)))
            print(f"  {name:12s} {cells}  medians differ by {drift:+.3f} (bound {bound}) "
                  f"{'agree' if agree else 'DISAGREE'}")
    os.makedirs(".bench_reports", exist_ok=True)
    with open(os.path.join(".bench_reports", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump({"runs": results, "summary": summary}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
