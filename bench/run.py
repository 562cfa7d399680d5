"""Benchmark of the richain CLI: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from any directory of a checkout; the program is imported from the
checkout's `src/`.  Each iteration of a workload runs `richain.cli.main`
in a fresh interpreter (`child.py`), one at a time, with at most two BLAS
threads, so every run pays import time and every in-program cache fill
the way a CLI user does.  Iterations repeat while the next one is
expected to end within `--seconds` (at least three).  Each one's output
is checked for correctness (`checks.py`) and for bytes identical to the
run's first iteration; a failed iteration counts against `failed`.

With `--trace 0` the run reports the end-to-end metrics: median wall
time of `cli.main`, median set-up time (spawn to `richain.cli`
imported), median peak RSS.  With `--trace 1` it alternates untraced
and traced iterations and reports the per-layer metrics named in
`layers.json`: calls, self time, repeat shares and errors of each
module's public functions, each module's `-X importtime` figure, and
the tracing overhead.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
a readable summary and the environment.  `--all` runs every workload
and prints one table.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CHECKS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
LAYERS = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))

BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
MIN_ITERATIONS = 3
IMPORT_PROBES = 3
# a run ends within this many seconds, whatever --seconds asks for
HARD_LIMIT_S = 170.0


# ---------------------------------------------------------------------------
# inputs


def workload_inputs(name: str, seed: int, tiny: bool = False) -> tuple[list[str], dict]:
    """CLI argv and config of a workload; the seed changes inputs, never the work."""
    spec = WORKLOADS[name]["tiny"] if tiny else WORKLOADS[name]
    config = copy.deepcopy(spec["config"])
    if name in ("verify", "sweep"):
        config[name]["seed"] = seed
    elif name == "limit":
        rng = random.Random(seed)
        thetas = []
        for re, im in config["limit"]["thetas"]:
            magnitude = math.hypot(re, im)
            while True:
                phase = rng.uniform(-math.pi, math.pi)
                theta = complex(magnitude * math.cos(phase), magnitude * math.sin(phase))
                # never above the magnitude: the oracle's cutoff headroom depends on it
                if abs(theta) <= magnitude:
                    break
            thetas.append([theta.real, theta.imag])
        config["limit"]["thetas"] = thetas
    return list(spec["argv"]), config


# ---------------------------------------------------------------------------
# children


def _child_env() -> dict:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_iteration(name: str, argv: list[str], config: dict, work: Path, trace: bool,
                  want_env: bool, timeout: float) -> dict:
    """One fresh-process iteration; returns its measurements and failure reason."""
    config_path = work / f"{name}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out, result = work / "out.txt", work / "result.json"
    for stale in (out, result):
        stale.unlink(missing_ok=True)
    spec = {
        "argv": [*argv, "--config", str(config_path)],
        "out": str(out),
        "result": str(result),
        "trace": trace,
        "env": want_env,
        "modules": LAYERS["modules"],
        "methods": LAYERS["methods"],
    }
    record = {"trace": trace, "reason": None}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), repr(spawned), json.dumps(spec)],
            cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        record["reason"] = f"timed out after {timeout:.0f} s"
        return record
    if proc.returncode != 0 or not result.exists():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        record["reason"] = f"child exit {proc.returncode}: {' '.join(tail)}"
        return record
    record.update(json.loads(result.read_text(encoding="utf-8")))
    data = out.read_bytes()
    record["digest"] = hashlib.sha256(data).hexdigest()
    if record["error"]:
        record["reason"] = record["error"].strip().splitlines()[-1]
    else:
        record["reason"] = CHECKS[name](data.decode("utf-8"), record["code"], config)
    return record


def import_times(work: Path) -> dict[str, float]:
    """Median cumulative `-X importtime` seconds of each traced module."""
    samples: dict[str, list[float]] = {m: [] for m in LAYERS["modules"]}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import richain.cli"],
            cwd=work, env=_child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=60, check=True,
        )
        for line in proc.stderr.decode().splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip().startswith("richain."):
                module = fields[2].strip()[len("richain."):]
                if module in samples:
                    samples[module].append(int(fields[1]) / 1e6)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


# ---------------------------------------------------------------------------
# metrics


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = []
    for group in LAYERS["mapping"]:
        for metric in group["metrics"]:
            stat = metric.rsplit(".", 1)[1]
            unit = {"calls": "count", "self_s": "s"}.get(stat, "share")
            if (metric, unit) not in names:
                names.append((metric, unit))
    for stat, info in LAYERS["per_module"].items():
        names.extend((f"{module}.{stat}", info["unit"]) for module in LAYERS["modules"])
    names.append(("trace.overhead_s", "s"))
    return names


def _layer_values(traced: list[dict], overhead: float, imports: dict) -> dict[str, float]:
    summaries = [r["layers"] for r in traced]

    def per_iteration(key: str, prefix: str) -> list[float]:
        """`key` summed over the traced names that start with `prefix`, per iteration."""
        return [sum(v.get(key, 0) for f, v in s.items() if f.startswith(prefix))
                for s in summaries]

    values = {}
    for metric, _ in per_layer_names():
        head, key = metric.rsplit(".", 1)
        if metric == "trace.overhead_s":
            values[metric] = overhead
        elif key == "import_s":
            values[metric] = imports[head]
        elif key == "errors":
            values[metric] = sum(per_iteration(key, head + "."))
        elif head in LAYERS["modules"]:
            values[metric] = statistics.median(per_iteration(key, head + "."))
        else:
            stat = key if key in ("calls", "self_s") else "repeat_share"
            values[metric] = statistics.median(
                s.get(head, {}).get(stat, 0) for s in summaries
            )
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Iterations of one workload for about `seconds`; returns summary and result object."""
    argv, config = workload_inputs(name, seed)
    start = time.monotonic()
    records: list[dict] = []
    durations: list[float] = []
    env = None
    while True:
        elapsed = time.monotonic() - start
        # start another iteration only if it should end within --seconds
        if len(records) >= MIN_ITERATIONS and elapsed + statistics.median(durations) > seconds:
            break
        if HARD_LIMIT_S - elapsed < 5.0:  # also ends the run after a timed-out child
            break
        traced = trace and len(records) % 2 == 1
        record = run_iteration(name, argv, config, work, traced, env is None,
                               HARD_LIMIT_S - elapsed)
        durations.append(time.monotonic() - start - elapsed)
        env = env or record.get("env")
        records.append(record)
    digests = [r["digest"] for r in records if "digest" in r]
    for record in records:
        if record["reason"] is None and record.get("digest") != digests[0]:
            record["reason"] = "output bytes differ from the run's first iteration"

    measured = [r for r in records if "wall_s" in r]
    untraced = [r for r in measured if not r["trace"]]
    if not untraced:
        raise RuntimeError(f"{name}: no iteration produced a measurement: {records[0]['reason']}")
    failed = sum(r["reason"] is not None for r in records)
    wall = statistics.median(r["wall_s"] for r in untraced)
    summary = {
        "workload": name, "seed": seed, "iterations": len(records),
        "untraced": len(untraced), "failed": failed,
        "reasons": sorted({r["reason"] for r in records if r["reason"]}),
        "env": {**environment(), **(env or {})},
    }
    if trace:
        traced_records = [r for r in measured if r["trace"]]
        if not traced_records:
            raise RuntimeError(f"{name}: no traced iteration produced a measurement")
        overhead = statistics.median(r["wall_s"] for r in traced_records) - wall
        values = _layer_values(traced_records, overhead, import_times(work))
        units = dict(per_layer_names())
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(r["setup_s"] for r in measured),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    return {
        "summary": summary,
        "result": {
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        },
    }


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_at_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# reporting


def _describe(outcome: dict) -> list[str]:
    s, r = outcome["summary"], outcome["result"]
    lines = [
        f"workload {s['workload']} seed {s['seed']}: {s['iterations']} iterations "
        f"({s['untraced']} untraced), {s['failed']} failed"
    ]
    for key, metric in r["metrics"].items():
        lines.append(f"  {key:<62} {metric['value']:>14.6g} {metric['unit']}")
    lines.append(
        f"  {'error_rate':<62} {r['failed'] / r['attempted']:>14.6g} failed/attempted"
        f" ({r['failed']}/{r['attempted']})"
    )
    lines.extend(f"  failure: {reason}" for reason in s["reasons"])
    lines.append("env " + json.dumps(s["env"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "richain" / "cli.py").is_file():
        print(f"error: no richain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        names = list(WORKLOADS) if args.all else [args.workload]
        outcomes = [run_workload(n, args.seed, args.seconds, bool(args.trace), work)
                    for n in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for outcome in outcomes:
        print("\n".join(_describe(outcome)))
    if args.all:
        print(json.dumps({o["summary"]["workload"]: o["result"] for o in outcomes}))
    else:
        print(json.dumps(outcomes[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
