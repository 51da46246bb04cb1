#!/usr/bin/env python3
"""Entry point of the repository benchmark (see benchmark/README.md).

One workload, one process, one JSON line:

    python3 benchmark/run.py --workload W --seed S --seconds N --trace 0|1

builds amdgcnn_bench if needed, runs workload W once and prints, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics.  The metrics are the end-to-end metrics BENCHMARK.json
names with --trace 0, and its per-layer metrics with --trace 1.  The exit
status is 0 only when every correctness gate held and every named metric was
measured with its unit and a finite value.

Every workload, one process each, as `workload metric value unit` lines:

    python3 benchmark/run.py [--seed S] [--seconds N] [--trace] [--smoke]

With --trace each workload runs untraced (end-to-end metrics) and then
traced (per-layer metrics, Chrome trace JSON), and the change in links_per_s
between the two runs is printed as well.

The build tree is $CARGO_TARGET_DIR when set, else .bench_build at the
repository root.  Each run's full result, stamped with host and commit
metadata, is saved under <build>/results (or --results DIR) for compare.py;
traces go to <build>/trace/<workload>.json.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
if not BUILD.is_absolute():
    BUILD = ROOT / BUILD
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """(Re)build amdgcnn_bench, configuring the tree first if that fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    make = ["cmake", "--build", str(BUILD), "--target", "amdgcnn_bench", "-j", jobs]
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]

    def ok(cmd):
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0
    if not ((BUILD / "CMakeCache.txt").exists() and ok(make)):
        for cmd in (configure, make):
            if not ok(cmd):
                raise SystemExit(f"benchmark build failed: {' '.join(cmd)}")
    return BUILD / "amdgcnn_bench"


def git_meta():
    if not (ROOT / ".git").exists():
        return {"git_sha": "unknown", "git_dirty": None}

    def git(*cmd):
        return subprocess.run(["git", "-C", str(ROOT), *cmd], text=True,
                              capture_output=True, timeout=30)
    try:
        sha = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": "unknown", "git_dirty": None}
    if sha.returncode != 0 or status.returncode != 0:
        return {"git_sha": "unknown", "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def run_workload(binary, workload, seed, seconds, trace, smoke, results):
    """Run amdgcnn_bench once; returns its result dict (None if it wrote none)."""
    results.mkdir(parents=True, exist_ok=True)
    scratch = BUILD / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    for stale in scratch.glob("*.snap"):  # left by a run that was killed
        stale.unlink()
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out), "--scratch", str(scratch)]
    if trace:
        trace_dir = BUILD / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_dir / f"{workload}.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    if not out.exists():
        log(f"{workload}: amdgcnn_bench exited {code} without a result")
        return None
    result = json.loads(out.read_text())
    result["exit_code"] = code
    result["meta"].update(git_meta())
    out.write_text(json.dumps(result, indent=1) + "\n")
    return result


def select(result, names):
    """The named metrics of one result, and the names missing or malformed."""
    chosen, bad = {}, []
    for name, unit in names:
        m = result["metrics"].get(name)
        if (m is None or m["unit"] != unit or not isinstance(m["value"], (int, float))
                or not math.isfinite(m["value"])):
            bad.append(name)
        else:
            chosen[name] = {"value": m["value"], "unit": unit}
    return chosen, bad


def names_for(spec, trace):
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run one workload and print one JSON line")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1"])
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    p.add_argument("--bin", help="use this amdgcnn_bench binary instead of building one")
    p.add_argument("--results", help="directory for result files")
    args = p.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    trace = args.trace == "1"
    results = Path(args.results) if args.results else BUILD / "results"
    binary = Path(args.bin) if args.bin else build()

    if args.workload:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise SystemExit(f"unknown workload {args.workload}")
        result = run_workload(binary, args.workload, args.seed, seconds, trace,
                              args.smoke, results)
        if result is None:
            return 1
        metrics, bad = select(result, names_for(spec, trace))
        if bad:
            log(f"{args.workload}: missing or non-finite metrics: {', '.join(bad)}")
            return 1
        correct = bool(result["correct"]) and result["exit_code"] == 0
        print(json.dumps({"correct": correct, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
        return 0 if correct else 1

    status = 0
    for w in [w["name"] for w in spec["workloads"]]:
        passes = [False, True] if trace else [False]
        measured = {}
        for traced in passes:
            result = run_workload(binary, w, args.seed, seconds, traced, args.smoke, results)
            if result is None or not result["correct"]:
                status = 1
                continue
            metrics, bad = select(result, names_for(spec, traced))
            if bad:
                log(f"{w}: missing or non-finite metrics: {', '.join(bad)}")
                status = 1
            for name, m in metrics.items():
                print(f"{w} {name} {m['value']:.6g} {m['unit']}", flush=True)
            measured[traced] = result["metrics"]["links_per_s"]["value"]
        if len(measured) == 2:
            delta = 1.0 - measured[True] / measured[False]
            print(f"{w} traced_links_per_s_loss {delta:.6g} ratio", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
