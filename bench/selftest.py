"""Self-test of the benchmark's tracer on tiny configs of every workload.

    python3 bench/selftest.py

For each workload it runs one untraced and one traced iteration of the
workload's `tiny` config from `workloads.json` and checks that:

- every per-layer metric that `layers.json` maps to the workload records
  at least one call there, so a refactor that rebinds a public name
  cannot silently zero a layer;
- the output bytes are identical with tracing on and off.

It also checks that `BENCHMARK.json`, where present, declares exactly the
workloads of `workloads.json` and the per-layer metrics `run.py`
reports.  The tiny configs run the real code paths at small sizes; their
outputs are not held to the full workloads' correctness checks (a verify
at cutoff 8 misses the oracle tolerances).
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def coverage_gaps(name: str, layers: dict) -> list[str]:
    """Mapped per-layer metrics whose function recorded no call on `name`."""
    gaps = []
    for group in run.LAYERS["mapping"]:
        if name not in group["on"]:
            continue
        for metric in group["metrics"]:
            function = metric.rsplit(".", 1)[0]
            if layers.get(function, {}).get("calls", 0) < 1:
                gaps.append(f"{name}: {metric} recorded no call")
    return gaps


def main() -> int:
    problems = []
    work = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in run.WORKLOADS:
            argv, config = run.workload_inputs(name, 0, tiny=True)
            plain, traced = (
                run.run_iteration(name, argv, config, work, trace, False, 120.0)
                for trace in (False, True)
            )
            missing = [r["reason"] for r in (plain, traced) if "digest" not in r or r["error"]]
            if missing:
                problems.extend(f"{name}: {reason}" for reason in missing)
                continue
            if plain["digest"] != traced["digest"]:
                problems.append(f"{name}: output bytes differ with tracing on")
            problems.extend(coverage_gaps(name, traced["layers"]))
            calls = sum(v["calls"] for v in traced["layers"].values())
            print(f"{name}: {calls} traced calls, outputs identical: "
                  f"{plain['digest'] == traced['digest']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    benchmark = run.ROOT / "BENCHMARK.json"
    if benchmark.exists():
        declared = json.loads(benchmark.read_text(encoding="utf-8"))
        if [(m["name"], m["unit"]) for m in declared["per_layer"]] != run.per_layer_names():
            problems.append("BENCHMARK.json per_layer differs from run.per_layer_names()")
        whys = [(name, spec["why"]) for name, spec in run.WORKLOADS.items()]
        if [(w["name"], w["why"]) for w in declared["workloads"]] != whys:
            problems.append("BENCHMARK.json workloads differ from workloads.json")

    for problem in problems:
        print("FAIL", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
