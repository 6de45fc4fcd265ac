#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the benchmark runner (perfbench/CMakeLists.txt, which compiles the
corebist library from the checkout's sources), runs one workload and prints
the result. Run from the root of a checkout:

    python3 perfbench/run.py --workload seq_grade --seed 1 --seconds 25 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a separate traced run (spans go to
.bench_build/trace-<workload>-<seed>.json).

Output checks run inside the runner; in addition the simulated statistics of
a run are compared with the values recorded in perfbench/expected.json for
that (workload, size, seed), when such a record exists. Each failed check
counts as a failed op.

    python3 perfbench/run.py --selftest      # smallest size, every workload
    python3 perfbench/run.py --record ...    # (re)record simulated values
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected.json"
WORKLOADS = ("seq_grade", "scan_atpg", "soc_session")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
BUILD_JOBS = 4


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure and build the runner; returns its path or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("perfbench: no corebist sources next to perfbench/",
              file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out)])
    steps.append(["cmake", "--build", str(out), "-j", str(BUILD_JOBS),
                  "--target", "perfbench_runner"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    exe = out / "perfbench_runner"
    return exe if exe.is_file() else None


def run_workload(exe, workload, seed, seconds, trace, size):
    """Run one workload; returns (report lines, result dict) or None."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--size", size]
    if trace:
        cmd += ["--trace-out",
                str(build_dir() / f"trace-{workload}-{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: runner timed out", file=sys.stderr)
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        print(f"perfbench: runner exited with {proc.returncode}",
              file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: runner printed no result", file=sys.stderr)
        return None
    return lines[:-1], result


def record_key(workload, size, seed):
    return f"{workload}/{size}/{seed}"


def load_expected():
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def compare_recorded(result, recorded, out_lines):
    """Check simulated statistics against a record; one check op."""
    if recorded is None:
        return result
    result = dict(result)
    result["attempted"] += 1
    sim = result.get("simulated", {})
    bad = [k for k in sorted(set(recorded) | set(sim))
           if sim.get(k) != recorded.get(k)]
    for k in bad:
        out_lines.append(f"  CHECK FAILED: simulated {k} = {sim.get(k)}, "
                         f"recorded {recorded.get(k)}")
    if bad:
        result["failed"] += 1
        result["correct"] = False
    else:
        out_lines.append("  simulated statistics match the recorded values")
    return result


def final_line(result):
    return json.dumps({"correct": bool(result["correct"]),
                       "attempted": int(result["attempted"]),
                       "failed": int(result["failed"]),
                       "metrics": result["metrics"]})


def selftest(exe):
    """Smallest size: every metric of BENCHMARK.json is printed with its
    unit on every workload, recorded values match, and a corrupted record
    shows up as a failed op."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = load_expected()
    problems = []
    for w in WORKLOADS:
        recorded = expected.get(record_key(w, "smoke", DEFAULT_SEED))
        if recorded is None:
            problems.append(f"{w}: no recorded smoke values")
            continue
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            got = run_workload(exe, w, DEFAULT_SEED, 1, trace, "smoke")
            if got is None:
                problems.append(f"{w}: runner failed (trace={int(trace)})")
                continue
            lines, result = got
            metrics = result["metrics"]
            for m in spec[group]:
                if metrics.get(m["name"], {}).get("unit") != m["unit"]:
                    problems.append(f"{w}: {m['name']} [{m['unit']}] missing")
            if set(metrics) != {m["name"] for m in spec[group]}:
                problems.append(f"{w}: metrics differ from {group}")
            checked = compare_recorded(result, recorded, lines)
            if checked["failed"] or not checked["correct"]:
                problems.append(f"{w}: failed ops on a clean run: "
                                + "; ".join(l for l in lines if "FAILED" in l))
            corrupt = dict(recorded)
            key = sorted(corrupt)[0]
            corrupt[key] = corrupt[key] + 1
            bad = compare_recorded(result, corrupt, [])
            if bad["failed"] != checked["failed"] + 1 or bad["correct"]:
                problems.append(f"{w}: corrupted record {key} not caught")
        print(f"selftest {w}: {'ok' if not problems else 'see below'}")
    for p in problems:
        print("  " + p)
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="record this run's simulated statistics")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    if args.selftest:
        return 0 if selftest(exe) else 1
    if args.workload is None:
        ap.error("--workload is required")

    got = run_workload(exe, args.workload, args.seed, args.seconds,
                     bool(args.trace), args.size)
    if got is None:
        return 1
    lines, result = got
    key = record_key(args.workload, args.size, args.seed)
    expected = load_expected()
    if args.record:
        expected[key] = result["simulated"]
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")
        lines.append(f"  recorded simulated statistics as {key}")
    result = compare_recorded(result, expected.get(key), lines)
    for line in lines:
        print(line)
    print(final_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
