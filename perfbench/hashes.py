"""Regenerate perfbench/reference_hashes.json from the current program.

    python3 perfbench/hashes.py

Run from the root of a checkout.  For each workload and each of seeds 1-5
it runs one round (`run.py --seconds 0 --trace 0`) and records the sha256
of every output file.  run.py compares each later run's hashes with these and names
the calls whose output bytes changed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEEDS = range(1, 6)


def main() -> int:
    reference = {}
    for workload in workloads.WORKLOADS:
        reference[workload] = {}
        for seed in SEEDS:
            subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                            "--seed", str(seed), "--seconds", "0", "--trace", "0"],
                           check=True, stdout=subprocess.DEVNULL)
            report = os.path.join(".bench_reports", f"{workload}-seed{seed}-trace0.json")
            with open(report, encoding="utf-8") as fh:
                reference[workload][str(seed)] = json.load(fh)["sha256"]
            print(f"{workload} seed {seed}: {len(reference[workload][str(seed)])} outputs",
                  flush=True)
    with open(os.path.join(HERE, "reference_hashes.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
