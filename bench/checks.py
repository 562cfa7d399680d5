"""Correctness checks on each workload's CLI output.

They share no code with the closed forms under test: every expected
value is computed here from the config with the standard library only.
Each check returns None when the output is right, else a one-line
reason.
"""

from __future__ import annotations

import csv
import io
import math

# verify's oracle tolerances (oracle_char_fn, oracle_entropy_constancy)
ORACLE_TOLERANCES = {"delta_char_fn_max": 1e-5, "delta_entropy": 1e-5}
# relative slack for the entropy-production bound, which the output meets with equality
# once |z|^(2m) underflows, up to rounding of the occupation formula
BOUND_SLACK = 1e-12

# the CLI's defaults for what a config leaves out
DEFAULT_MODEL = {"N": 8, "beta0": math.log(3.0), "beta": math.log(2.0)}
DEFAULT_CHECKPOINTS = 5


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _occupation(beta: float) -> float:
    return 1.0 / math.expm1(beta)


def _mode_entropy(beta: float) -> float:
    """s = (n+1) ln(n+1) - n ln(n) from the mean occupation n."""
    n = _occupation(beta)
    return (n + 1.0) * math.log1p(n) - n * math.log(n)


def check_verify(text: str, code: int, config: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    lines = text.splitlines()
    if len(lines) < 2:
        return "no check lines"
    failing = [line for line in lines[:-1] if not line.startswith("PASS ")]
    if failing:
        return f"not PASS: {failing[0]}"
    count = len(lines) - 1
    if lines[-1] != f"{count}/{count} checks passed":
        return f"bad summary line {lines[-1]!r}"
    return None


def check_simulate(text: str, code: int, config: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    model = {**DEFAULT_MODEL, **config.get("model", {})}
    n_modes, beta0, beta = int(model["N"]), float(model["beta0"]), float(model["beta"])
    rows = _rows(text)
    if len(rows) != n_modes + 1:
        return f"{len(rows)} rows, expected {n_modes + 1}"
    expected = n_modes * _mode_entropy(beta) + _mode_entropy(beta0)
    bound = (beta - beta0) * (_occupation(beta0) - _occupation(beta))
    previous = -math.inf
    for row in rows:
        total = float(row["total_entropy"])
        if abs(total - expected) > 1e-9 * abs(expected):
            return f"m={row['m']}: total_entropy {total!r}, expected {expected!r}"
        production = float(row["relative_entropy"])
        if production < previous:
            return f"m={row['m']}: relative_entropy decreased"
        if production > bound * (1.0 + BOUND_SLACK):
            return f"m={row['m']}: relative_entropy {production!r} above {bound!r}"
        previous = production
    return None


def check_limit(text: str, code: int, config: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    section = config["limit"]
    checkpoints = len(section.get("checkpoints", ())) or DEFAULT_CHECKPOINTS
    expected = len(section["thetas"]) * checkpoints
    rows = _rows(text)
    if len(rows) != expected:
        return f"{len(rows)} rows, expected {expected}"
    bad = [row["run_id"] for row in rows if row["monotone_ok"] != "true"]
    return f"monotone_ok false at {bad[0]}" if bad else None


def check_sweep(text: str, code: int, config: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    expected = math.prod(len(axis) for axis in config["sweep"]["grid"].values())
    rows = _rows(text)
    if len(rows) != expected:
        return f"{len(rows)} rows, expected {expected}"
    for row in rows:
        if row.get("error"):
            return f"{row['run_id']}: {row['error']}"
        for column, tolerance in ORACLE_TOLERANCES.items():
            value = row.get(column, "")
            if not value:
                return f"{row['run_id']}: no {column}"
            if not float(value) < tolerance:
                return f"{row['run_id']}: {column} {value} not below {tolerance}"
    return None


CHECKS = {
    "verify": check_verify,
    "simulate": check_simulate,
    "limit": check_limit,
    "sweep": check_sweep,
}
