"""Benchmark of `projstruct select|simulate|check`, run from the root of a checkout.

    python3 perfbench/run.py --workload exhaustive-check --seed 1 --seconds 50 --trace 0

One run is one fresh Python process.  It times `import projstruct.cli` in
fresh interpreters (setup_s), builds the workload's inputs from --seed,
then calls `projstruct.cli.main(argv)` in-process with `--workers 1` in a
closed loop: each call starts when the previous one returns, and whole
rounds of the workload's calls repeat while the next round, timed like the
last one, still fits in --seconds (at least one round runs).  After the
timed rounds, and after the memory peak is read, every distinct output of
every call is checked against computations made apart from the program
(checks.py).

After each call a fixed computation that does not involve the program (the
speed probe) is timed.  The host's speed drifts by tens of percent over
minutes, and the probe's median over the run follows it: calls_ref_s is the
sum of the calls' median wall times scaled by PROBE_REF_S / that median,
the calls' time at the reference machine's speed.  calls_s, the wall time,
is printed and kept in the report.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics (tracing.py).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A report with per-call times and output
hashes goes to .bench_reports/ in the checkout.
"""

import os

# One BLAS thread: the calls are timed single-threaded, like the program's
# `--workers 1`, and two CPUs give no room for a steady multi-threaded figure.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
REPORTS = os.path.join(ROOT, ".bench_reports")
REFERENCE = os.path.join(HERE, "reference_hashes.json")
SETUP_SAMPLES = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); import projstruct.cli; "
                "print(time.perf_counter() - t); print(projstruct.cli.__file__)")

# A fixed computation that does not involve the program, timed after every
# call: its median over a run measures the host's speed during that run.
PROBE_MATRIX = np.random.default_rng(0).standard_normal((48, 48))
PROBE_REF_S = 0.025  # the probe's median on the reference machine (README.md)

# the part of the calls' wall time spent in each command, printed by name
COMMAND_METRIC = {"select": "select_s", "simulate": "simulate_s", "check": "check_s"}


def import_seconds() -> float:
    """Time `import projstruct.cli` in a fresh interpreter using ./src."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    seconds, origin = out.split("\n")[:2]
    if not os.path.abspath(origin).startswith(SRC + os.sep):
        raise RuntimeError(f"projstruct imported from {origin}, not from {SRC}")
    return float(seconds)


def write_inputs(calls) -> None:
    os.makedirs("out")
    for call in calls:
        if call.data is not None:
            with open(f"{call.name}.csv", "w", encoding="utf-8") as fh:
                fh.write("".join(f"{float(v)!r}\n" for v in call.data))
        with open(f"{call.name}.json", "w", encoding="utf-8") as fh:
            json.dump(call.config, fh, sort_keys=True)


def speed_probe() -> float:
    """Seconds for an interpreter loop and a run of small QR factorisations,
    the two kinds of work the program's calls are made of."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(40000):
        acc += i * i % 7
        table[i & 1023] = acc
    a = PROBE_MATRIX.copy()
    for _ in range(150):
        q, _ = np.linalg.qr(a)
        a += 1e-3 * q
    return time.perf_counter() - start


def run_round(cli, calls, outputs, tracer=None) -> dict:
    """Run every call once, in order; time and hash each output, and keep
    each distinct output of a completed call in outputs[(call, sha256)]."""
    rnd = {"seconds": {}, "sha256": {}, "bytes": 0, "failed": {}, "probe_s": []}
    if tracer is not None:
        tracer.install()
    try:
        for call in calls:
            out = os.path.join("out", call.out_name)
            if os.path.exists(out):
                os.remove(out)
            argv = [call.command, "--config", f"{call.name}.json", "--out", out,
                    "--seed", str(call.seed), "--workers", "1"]
            error = None
            start = time.perf_counter()
            try:
                code = cli.main(argv)
                if code != 0:
                    error = f"exit code {code}"
            except Exception:  # an operation's failure is counted, not fatal
                error = traceback.format_exc(limit=-2).strip()
            rnd["seconds"][call.name] = time.perf_counter() - start
            data = None
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    data = fh.read()
                rnd["sha256"][call.name] = hashlib.sha256(data).hexdigest()
                rnd["bytes"] += len(data)
            if error is not None:
                rnd["failed"][call.name] = error
            else:
                outputs.setdefault((call.name, rnd["sha256"].get(call.name)), data)
            rnd["probe_s"].append(speed_probe())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return rnd


def check_outputs(calls, outputs) -> dict:
    """Check each distinct output of each completed call; problems by call."""
    by_name = {call.name: call for call in calls}
    problems = {}
    for (name, digest), data in outputs.items():
        call = by_name[name]
        path = os.path.join("out", call.out_name)
        if data is None:
            problems[name] = ["the call returned 0 but wrote no output"]
            continue
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            found = call.check(path, call.seed)
        except Exception:  # unreadable or malformed output
            found = [traceback.format_exc(limit=-1).strip()]
        if found:
            problems[f"{name} ({digest[:12]})"] = found
    return problems


def reference_mismatches(workload: str, seed: int, hashes: dict):
    """Calls whose output hash differs from the committed reference, or None
    when no reference exists for this workload and seed."""
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        ref = None
    if ref is None:
        return None
    return sorted(name for name in set(ref) | set(hashes) if ref.get(name) != hashes.get(name))


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "projstruct", "cli.py")):
        print(f"run.py: {SRC}/projstruct/cli.py not found; run from the root of a projstruct "
              "checkout", file=sys.stderr)
        return 2
    setup = [import_seconds() for _ in range(SETUP_SAMPLES)]
    sys.path.insert(0, SRC)
    import projstruct.cli as cli

    calls = workloads.build(args.workload, args.seed)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.chdir(work)  # configs name their data files relative to here
    rounds, traced, tracers, outputs = [], [], [], {}
    try:
        write_inputs(calls)
        # whole rounds while the next one, timed like the last, still fits
        began, last = time.perf_counter(), 0.0
        while not rounds or time.perf_counter() - began + last <= args.seconds:
            start = time.perf_counter()
            rounds.append(run_round(cli, calls, outputs))
            rounds[-1]["wall"] = time.perf_counter() - start
            if args.trace:
                tracers.append(tracing.Tracer())
                traced_start = time.perf_counter()
                traced.append(run_round(cli, calls, outputs, tracers[-1]))
                traced[-1]["wall"] = time.perf_counter() - traced_start
            last = time.perf_counter() - start
        # read before the checks and their reference computations run
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = check_outputs(calls, outputs)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    everything = rounds + traced
    attempted = len(calls) * len(everything)
    failed = sum(len(r["failed"]) for r in everything)
    hashes = rounds[0]["sha256"]
    unstable = sorted(name for r in everything for name in r["sha256"]
                      if r["sha256"][name] != hashes.get(name))
    mismatched = reference_mismatches(args.workload, args.seed, hashes)

    # each call's median over the untraced rounds; calls_s is their sum, and
    # calls_ref_s the same at the reference machine's speed
    call_s = {c.name: median([r["seconds"][c.name] for r in rounds]) for c in calls}
    calls_s = sum(call_s.values())
    probe_s = median([p for r in rounds for p in r["probe_s"]])
    reps = sum(c.reps for c in calls)
    if args.trace:
        per_round = [tracing.layer_values(t.summary(), t.counters) for t in tracers]
        values = {name: median([v[name] for v in per_round]) for name in tracing.LAYER_METRICS}
        units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
        values["cli.output.bytes"] = median([r["bytes"] for r in rounds])
        units["cli.output.bytes"] = "B"
        for name in workloads.all_call_names():
            values[f"call.{name}.s"] = call_s.get(name, 0.0)
            units[f"call.{name}.s"] = "s"
        values["round.untraced_s"] = median([r["wall"] for r in rounds])
        values["round.traced_s"] = median([r["wall"] for r in traced])
        units["round.untraced_s"] = units["round.traced_s"] = "s"
        absent = tracing.absent_metrics(tracers[0].found)
        os.makedirs(REPORTS, exist_ok=True)
        tracers[-1].save(os.path.join(REPORTS, f"{args.workload}-seed{args.seed}-spans.npz"))
    else:
        values = {"setup_s": median(setup), "calls_ref_s": calls_s * PROBE_REF_S / probe_s,
                  "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": "s", "calls_ref_s": "s", "peak_rss_mb": "MB"}
        absent = []
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": BLAS_THREADS, "rounds": len(rounds),
        "traced_rounds": len(traced), "attempted": attempted, "failed": failed,
        "setup_samples_s": setup, "call_median_s": call_s, "replications_per_round": reps,
        "calls_s": calls_s, "probe_median_s": probe_s, "probe_s": [r["probe_s"] for r in rounds],
        "call_seconds": [r["seconds"] for r in rounds],
        "traced_call_seconds": [r["seconds"] for r in traced],
        "failures": {name: msg for r in everything for name, msg in r["failed"].items()},
        "problems": problems, "sha256": hashes, "sha256_unstable": unstable,
        "sha256_reference_mismatch": mismatched, "absent": absent,
        "absent_functions": tracers[0].absent if tracers else [],
        "metrics": metrics,
    }
    os.makedirs(REPORTS, exist_ok=True)
    with open(os.path.join(REPORTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    for name, msg in report["failures"].items():
        print(f"failed operation {name}: {msg.splitlines()[-1]}", file=sys.stderr)
    for name, msgs in problems.items():
        print(f"check failed {name}: " + "; ".join(msgs), file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} untraced and {len(traced)} traced "
          f"rounds, {attempted} operations attempted, {failed} failed, "
          f"checks {'failed' if problems else 'passed'}")
    if unstable:
        print("output hashes differ between rounds: " + ", ".join(unstable))
    if args.trace:
        print(f"traced outputs {'differ from' if unstable else 'are byte-identical to'} the "
              f"untraced ones; tracing overhead {values['round.traced_s'] / values['round.untraced_s']:.2f}x "
              "round time")
    if mismatched is None:
        print(f"no reference output hashes for seed {args.seed}")
    elif mismatched:
        print("output hashes differ from the reference: " + ", ".join(mismatched))
    if absent:
        print("absent (function no longer exists, reported as 0): " + ", ".join(absent))
    if not args.trace:
        print(f"setup_s = {values['setup_s']:.4f} s")
        print(f"calls_ref_s = {values['calls_ref_s']:.4f} s at the reference speed: "
              f"calls_s = {calls_s:.4f} s of wall time, speed probe {probe_s * 1e3:.2f} ms "
              f"against {PROBE_REF_S * 1e3:.0f} ms")
        for command, label in COMMAND_METRIC.items():
            if not any(c.command == command for c in calls):
                continue
            seconds = sum(call_s[c.name] for c in calls if c.command == command)
            print(f"  {label} = {seconds:.4f} s")
            if command == "simulate":
                print(f"  reps_per_s = {reps / seconds:.2f} 1/s")
        print(f"peak_rss_mb = {peak_rss_mb:.1f} MB")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
