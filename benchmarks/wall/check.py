"""Compare two wall-clock ledgers metric by metric against the bounds.

``python3 benchmarks/wall/check.py A.json B.json`` reads two
``BENCH_wall.json`` files (A = base, B = candidate) and prints, per
(metric, workload) row, both values with the per-unit quartiles and the
ratio B/A with its base.  A row is a *regression* when B is worse than A by more
than the metric's bound in ``BENCHMARK.json``; it is *unresolved*, not
unchanged, when either side's own spread exceeds that bound — unless
every run of B reads better than every run of A.  Exits non-zero on a
regression or on a digest mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from catalogue import END_TO_END, Metric, spread, worse_by  # noqa: E402


def bounds_from_benchmark_json() -> dict[str, float]:
    """The gating bounds as the driver reads them."""
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def judge(metric: Metric, bound: float, base: dict, new: dict) -> str:
    """ok / better / REGRESSION / unresolved for one (metric, workload)."""
    worse = worse_by(metric, base["value"], new["value"])
    if max(spread(base["values"]), spread(new["values"])) > bound:
        if metric.better == "lower":
            clean = max(new["values"]) < min(base["values"])
        else:
            clean = min(new["values"]) > max(base["values"])
        return "better" if clean else "unresolved"
    if worse > bound:
        return "REGRESSION"
    return "better" if worse < -bound else "ok"


def compare(base: dict, new: dict) -> int:
    """Print the comparison table; return the process exit code."""
    # Ledger-only metrics are compared against the catalogue's bound.
    bounds = {m.name: m.bound for m in END_TO_END}
    bounds.update(bounds_from_benchmark_json())
    failures = 0
    print(f"{'workload':<11}{'metric':<20}{'bound':>6}"
          f"{'A value [units q1,q3]':>34}{'B value [units q1,q3]':>34}"
          f"{'B/A':>8}  verdict")
    for workload, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            print(f"{workload:<11}missing from B")
            failures += 1
            continue
        if base_entry["digests"] != new_entry["digests"] \
                and base["seed"] == new["seed"]:
            print(f"{workload:<11}DIGEST MISMATCH {base_entry['digests']} "
                  f"!= {new_entry['digests']}")
            failures += 1
        for metric in END_TO_END:
            a = base_entry["end_to_end"][metric.name]
            b = new_entry["end_to_end"][metric.name]
            bound = bounds[metric.name]
            verdict = judge(metric, bound, a, b)
            failures += verdict == "REGRESSION"
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            print(f"{workload:<11}{metric.name:<20}{bound:>6.0%}"
                  f"{a['value']:>12.4f} [{a['q1']:>9.4f},{a['q3']:>9.4f}]"
                  f"{b['value']:>12.4f} [{b['q1']:>9.4f},{b['q3']:>9.4f}]"
                  f"{ratio:>8.3f}  {verdict} (base {a['value']:.4g} "
                  f"{metric.unit})")
    print(f"{failures} regression(s) or mismatch(es)")
    return 1 if failures else 0


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in paths)
    return compare(base, new)


if __name__ == "__main__":
    sys.exit(main())
