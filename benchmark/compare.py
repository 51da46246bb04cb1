#!/usr/bin/env python3
"""Compare two sets of benchmark runs (standard library only).

    python3 benchmark/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py, one JSON object per run.
For every workload and every metric of BENCHMARK.json the script prints the
median and quartiles of each side (statistics.quantiles, n=4), the change of
the new median against the base median, and a verdict:

  pass        the new median is worse than the base median by at most the
              metric's bound
  fail        it is worse by more than the bound
  unresolved  a side's quartile spread (q3 - q1, as a share of its median) is
              wider than the bound, and not every new run beats every base run

End-to-end metrics are read from untraced runs and judged against their
bounds; per-layer metrics are read from traced runs and have no bound, so
they get no verdict.  Exit status: 1 if any metric fails, else 0.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    """{workload: {traced: [result, ...]}} for every result file in directory."""
    runs = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.json")):
        try:
            result = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(result, dict) and "workload" in result and "metrics" in result:
            runs[result["workload"]][bool(result.get("traced"))].append(result)
    return runs


def values(results, name):
    out = []
    for r in results:
        m = r["metrics"].get(name)
        if m is not None and isinstance(m.get("value"), (int, float)):
            out.append(float(m["value"]))
    return out


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, med, q3


def spread(q1, med, q3):
    return (q3 - q1) / abs(med) if med else 0.0


def judge(metric, base, new):
    """(change of the median as a share of the base median, verdict)."""
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    change = (nmed - bmed) / abs(bmed) if bmed else 0.0
    if "bound" not in metric:
        return change, "-"
    lower = metric["better"] == "lower"
    worse_by = change if lower else -change
    all_better = max(new) < min(base) if lower else min(new) > max(base)
    bound = metric["bound"]
    if max(spread(bq1, bmed, bq3), spread(nq1, nmed, nq3)) > bound:
        return change, "pass" if all_better else "unresolved"
    return change, "fail" if worse_by > bound else "pass"


def fmt(v):
    q1, med, q3 = quartiles(v)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(v)}"


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    base, new = load(sys.argv[1]), load(sys.argv[2])
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        print(f"== {workload}")
        for traced, metrics in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            b_runs, n_runs = base[workload][traced], new[workload][traced]
            for side, rs in (("base", b_runs), ("new", n_runs)):
                bad = sum(1 for r in rs if not r.get("correct"))
                if bad:
                    print(f"  warning: {bad} of {len(rs)} {side} runs were not correct")
            for m in metrics:
                b, n = values(b_runs, m["name"]), values(n_runs, m["name"])
                if not b or not n:
                    continue
                change, verdict = judge(m, b, n)
                bound = f"{m['bound']:.3g}" if "bound" in m else "-"
                print(f"  {m['name']:32s} {m['unit']:6s} base {fmt(b):44s} "
                      f"new {fmt(n):44s} change {change:+.4f} bound {bound:5s} {verdict}")
                failed |= verdict == "fail"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
