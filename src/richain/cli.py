"""Command-line front end.

Subcommands expose the library over a single JSON config document and
emit deterministic CSV or JSON: fixed column order, complex values split
into <name>_re/<name>_im, infinities and NaN as the strings "inf",
"-inf" and "nan".  CSV writes floats with 17 significant digits, JSON
with the shortest repr that round-trips.  Identical config must produce
byte-identical output, so nothing time- or environment-dependent is ever
serialized.

Flags alone set --oracle, --cutoff and --tolerance; --cutoff sets the
oracle's cutoff, so on `simulate` and `sweep` it needs --oracle.  A config
key that nothing reads (top level, command section or limit.spec) is an
error, and so is a value of the wrong JSON type.

Exit codes: 0 success, 1 verification failure, 2 configuration or usage
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, fock_oracle
from .experiments import (
    ChainStateSpec,
    LimitSchedule,
    RunRecord,
    kernel_outputs,
    oracle_deltas,
    oracle_states,
    short_time_limit_run,
    sweep,
)
from .kernel import (
    ModelParams,
    as_integer,
    matrix_exponential_check,
    propagate_vector,
    step_matrix,
    step_scalars,
)
from .quasifree import char_fn, occupation

__all__ = ["main", "run_verification", "VerifyCheck"]


class ConfigError(Exception):
    """Malformed config or flags; maps to exit code 2."""


_DEFAULT_MODEL = {
    "E": 2.0, "eps": 1.0, "eta": 0.5, "tau": 1.0, "N": 8,
    "beta0": math.log(3.0), "beta": math.log(2.0),
}


def _parse_beta(value) -> float:
    if isinstance(value, str):
        if value == "inf":
            return math.inf
        raise ConfigError(f"beta values must be numbers or the string \"inf\", got {value!r}")
    return float(value)


def _number(value, convert, where: str):
    """convert(value), or a ConfigError naming `where` when that fails.  A bool
    is not a number, nor is a string for convert = float; convert = int reads
    by `as_integer`, so 3.9 is no integer."""
    kind = "an integer" if convert is int else "a number"
    try:
        if isinstance(value, bool) or convert is float and isinstance(value, str):
            raise TypeError(f"{value!r} is not a number")
        return as_integer(value, where) if convert is int else convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{where}' must be {kind}, got {value!r}") from exc


def _numbers(values, convert, where: str) -> list:
    if not isinstance(values, list):
        raise ConfigError(f"'{where}' must be a list, got {values!r}")
    return [_number(v, convert, f"{where}[{i}]") for i, v in enumerate(values)]


# the config's top-level keys; each command reads its own section
_SECTIONS = ("schema_version", "model", "simulate", "subsystem", "limit", "sweep", "verify")


def _check_keys(mapping: dict, where: str, known) -> None:
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {unknown}")


def _section(config: dict, name: str, known) -> dict:
    """The config's `name` section, {} if absent, holding only `known` keys."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"\"{name}\" section must be an object")
    _check_keys(section, name, known)
    return section


def _load_config(path: str | None) -> dict:
    if path is None:
        return {"schema_version": 1}
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if config.get("schema_version") != 1:
        raise ConfigError("config requires \"schema_version\": 1")
    _check_keys(config, "top-level", _SECTIONS)
    return config


# how each model key is read, in a model section or a sweep grid axis
_MODEL_PARSERS = {
    "E": float, "eps": float, "eta": float, "tau": float,
    "beta0": _parse_beta, "beta": _parse_beta, "N": int,
}


def _model_from_config(config: dict) -> ModelParams:
    section = {**_DEFAULT_MODEL, **_section(config, "model", _DEFAULT_MODEL)}
    try:
        return ModelParams(**{key: _number(value, _MODEL_PARSERS[key], f"model.{key}")
                              for key, value in section.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc


def _parse_complex_pair(value, where: str) -> complex:
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        and all(abs(v) <= sys.float_info.max for v in value)  # no inf, NaN or int past the floats
    ):
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"'{where}' must be a [re, im] pair of finite numbers, got {value!r}")


# ---------------------------------------------------------------------------
# serialization


# the builtin types a record value already has in split form, checked by exact
# type ahead of the isinstance chain: nearly every value is one of them
_PLAIN = (float, int, str, bool, type(None))


def _split(section: dict, prefix: str = "") -> dict:
    """A record section as plain scalars under `prefix` + key: each complex
    value becomes <key>_re and <key>_im floats, and numpy scalars become
    bool, int or float.  Both writers encode this one form."""
    out = {}
    for key, value in section.items():
        key = prefix + key
        if type(value) in _PLAIN:
            out[key] = value
        elif isinstance(value, (complex, np.complexfloating)):
            out[key + "_re"] = float(value.real)
            out[key + "_im"] = float(value.imag)
        elif isinstance(value, (bool, np.bool_)):
            out[key] = bool(value)
        elif isinstance(value, (float, np.floating)):
            out[key] = float(value)
        elif isinstance(value, (int, np.integer)):
            out[key] = int(value)
        else:
            out[key] = value
    return out


# the CSV text of a split value by its exact type, any other type by str:
# floats with 17 significant digits, which spell inf, -inf and nan so
_CSV_CELL = {
    float: "{:.17g}".format,
    bool: {True: "true", False: "false"}.__getitem__,
    int: str,
    str: str,
    type(None): lambda _: "",
}


def _records_csv(records: list[RunRecord]) -> str:
    rows, inputs, echo = [], None, {}
    for r in records:
        # records may share one inputs dict, as a simulate run's do: encode it
        # once.  Its cells are text, which encodes to itself below
        if r.inputs is not inputs:
            inputs = r.inputs
            echo = {key: _CSV_CELL.get(type(v), str)(v) for key, v in _split(inputs).items()}
        rows.append({
            "run_id": r.run_id,
            **echo,
            **_split(r.outputs),
            **_split(r.oracle_deltas or {}, "delta_"),
        })
    # dict keys keep first-seen order
    columns = list(dict.fromkeys(col for row in rows for col in row))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_CSV_CELL.get(type(v), str)(v) for v in map(row.get, columns)])
    return buf.getvalue()


def _json_value(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)  # "inf", "-inf" or "nan"
    return value


def _records_json(records: list[RunRecord], command: str) -> str:
    def encode(section: dict) -> dict:
        return {key: _json_value(value) for key, value in _split(section).items()}

    payload = {
        "schema_version": 1,
        "command": command,
        "records": [
            {
                "run_id": r.run_id,
                "inputs": encode(r.inputs),
                "outputs": encode(r.outputs),
                "oracle_deltas": encode(r.oracle_deltas) if r.oracle_deltas else None,
            }
            for r in records
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _emit(records: list[RunRecord], command: str, output: str | None, fmt: str) -> None:
    text = _records_csv(records) if fmt == "csv" else _records_json(records, command)
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_kernel(params: ModelParams) -> list[RunRecord]:
    """One record with the step scalars, coupled-mode energies and flags."""
    slots = range(1, min(params.N, 8) + 1)
    outputs = {
        **kernel_outputs(params),
        "matexp_deviation_max": max(matrix_exponential_check(params, n) for n in slots),
    }
    return [RunRecord(run_id="kernel-0000", inputs=_echo_model(params), outputs=outputs)]


def _echo_model(params: ModelParams) -> dict:
    return {name: getattr(params, name) for name in _DEFAULT_MODEL}


def cmd_simulate(config: dict, params: ModelParams, cutoff: int | None) -> list[RunRecord]:
    """Per-step rows of the dynamical quantities, oracle-checked at `cutoff`
    unless it is None."""
    section = _section(config, "simulate", ("alpha_sample", "seed"))
    alpha = complex(0.5, 0.0)
    if "alpha_sample" in section:
        alpha = _parse_complex_pair(section["alpha_sample"], "simulate.alpha_sample")
    finite = not (math.isinf(params.beta0) or math.isinf(params.beta))
    seed = _number(section.get("seed", 0), int, "simulate.seed")
    states = itertools.repeat(None) if cutoff is None else oracle_states(params, cutoff)

    inputs = {**_echo_model(params), "alpha_sample": alpha}  # one echo for every row
    records = []
    for m, rho in zip(range(params.N + 1), states):
        outputs = {
            "m": m,
            "beta_star": dynamics.effective_beta_S(params, m),
            "beta_star_star": (
                dynamics.effective_beta_Sm(params, m) if m >= 1 else float("nan")
            ),
            "relative_entropy": (
                dynamics.relative_entropy(params, m) if finite else float("nan")
            ),
            "total_entropy": dynamics.total_entropy(params, m),
            "char_S": dynamics.reduced_char_fn(params, m, [0], alpha),
        }
        deltas = None
        if rho is not None:
            deltas = oracle_deltas(params, m, rho, np.random.default_rng([seed, m]), 5)
        records.append(
            RunRecord(
                run_id=f"simulate-{m:04d}", inputs=inputs, outputs=outputs, oracle_deltas=deltas
            )
        )
    return records


def cmd_subsystem(config: dict, params: ModelParams) -> list[RunRecord]:
    """Reduced characteristic-function samples for one configured selector."""
    section = _section(config, "subsystem", ("kind", "m", "n", "alphas"))
    kind = section.get("kind", "S")
    m = _number(section.get("m", params.N), int, "subsystem.m")
    n = section.get("n")
    if n is not None:
        n = _number(n, int, "subsystem.n")
    slots = dynamics.subsystem_slots(kind, m, n)
    if "alphas" in section:
        if not isinstance(section["alphas"], list) or not section["alphas"]:
            raise ConfigError("subsystem.alphas must be a nonempty list of argument tuples")
        tuples = [
            [
                _parse_complex_pair(pair, f"subsystem.alphas[{i}][{j}]")
                for j, pair in enumerate(entry)
            ]
            for i, entry in enumerate(section["alphas"])
        ]
    else:
        tuples = [[complex(0.5, 0.0)] * len(slots)]

    extras: dict = {}
    if kind == "S":
        extras["beta_star"] = dynamics.effective_beta_S(params, m)
    elif kind in ("S1", "Sm"):
        extras["beta_star_star"] = dynamics.effective_beta_Sm(
            params, 1 if kind == "S1" else m
        )
    elif kind == "window":
        extras["window_norm_sq"] = dynamics.window_overlap_norm_sq(params, n, m)
        extras["window_entropy"] = dynamics.window_entropy(params, n, m)

    records = []
    for i, args in enumerate(tuples):
        if len(args) != len(slots):
            raise ConfigError(
                f"subsystem.alphas[{i}] has {len(args)} entries, selector needs {len(slots)}"
            )
        value = dynamics.reduced_char_fn(params, m, slots, args)
        outputs = {"value": value, **extras}
        for j, a in enumerate(args):
            outputs[f"alpha{j}"] = a
        records.append(
            RunRecord(
                run_id=f"subsystem-{i:04d}",
                inputs={**_echo_model(params), "kind": kind, "m": m, "n": n},
                outputs=outputs,
            )
        )
    return records


def _spec_from_config(section: dict) -> ChainStateSpec:
    raw = section.get("spec", {"kind": "gibbs", "beta": _DEFAULT_MODEL["beta"]})
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("limit.spec must be an object with a \"kind\"")
    kind = raw["kind"]
    try:
        if kind == "gibbs":
            _check_keys(raw, "limit.spec", ("kind", "beta"))
            return ChainStateSpec(kind="gibbs", beta=_parse_beta(raw.get("beta", _DEFAULT_MODEL["beta"])))
        if kind == "number_state":
            _check_keys(raw, "limit.spec", ("kind", "level"))
            level = _number(raw.get("level", 1), int, "limit.spec.level")
            return ChainStateSpec(kind="number_state", level=level)
        if kind == "custom":
            raise ConfigError("custom chain states are a library-level feature, not a config one")
        raise ConfigError(f"unknown chain-state kind {kind!r}")
    except ValueError as exc:
        raise ConfigError(f"invalid chain-state spec: {exc}") from exc


def cmd_limit(config: dict, params: ModelParams) -> list[RunRecord]:
    section = _section(config, "limit", ("exponent", "multiplier", "checkpoints", "spec", "thetas"))
    exponent = _number(section.get("exponent", 0.4), float, "limit.exponent")
    multiplier = _number(section.get("multiplier", 2.0), float, "limit.multiplier")
    checkpoints = LimitSchedule().checkpoints
    if "checkpoints" in section:
        checkpoints = tuple(_numbers(section["checkpoints"], int, "limit.checkpoints"))
    try:
        schedule = LimitSchedule(exponent=exponent, multiplier=multiplier, checkpoints=checkpoints)
    except ValueError as exc:
        raise ConfigError(f"invalid schedule: {exc}") from exc
    spec = _spec_from_config(section)
    thetas = [complex(1.0, 0.0)]
    if "thetas" in section:
        if not isinstance(section["thetas"], list):
            raise ConfigError(f"'limit.thetas' must be a list, got {section['thetas']!r}")
        thetas = [
            _parse_complex_pair(pair, f"limit.thetas[{i}]")
            for i, pair in enumerate(section["thetas"])
        ]
    return short_time_limit_run(params, schedule, spec, thetas)


def cmd_sweep(config: dict, cutoff: int | None) -> list[RunRecord]:
    """The sweep over the config's grid, oracle-checked at `cutoff` unless
    it is None."""
    if "sweep" not in config:
        raise ConfigError("sweep requires a \"sweep\" section in the config")
    section = _section(config, "sweep", ("grid", "seed"))
    grid = section.get("grid")
    if isinstance(grid, dict):  # `sweep` checks the grid's shape
        grid = {  # a copy: the caller's config stays as it was
            key: _numbers(values, _MODEL_PARSERS[key], f"sweep.grid.{key}")
            if key in _MODEL_PARSERS and isinstance(values, list) else values
            for key, values in grid.items()
        }
    return sweep(grid, cutoff=cutoff, seed=_number(section.get("seed", 0), int, "sweep.seed"))


# ---------------------------------------------------------------------------
# verification suite


@dataclass
class VerifyCheck:
    name: str
    deviation: float
    tolerance: float

    def __post_init__(self):
        # a numpy deviation would make `passed` a numpy bool
        self.deviation = float(self.deviation)

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def run_verification(params: ModelParams, cutoff: int = 24, seed: int = 0) -> list[VerifyCheck]:
    """The invariant suite behind `richain verify`.

    Every check reports its measured deviation against its own
    tolerance.  Fully deterministic for a fixed seed.
    """
    checks: list[VerifyCheck] = []
    rng = np.random.default_rng(seed)

    # step-scalar identities over random admissible parameters
    dev = 0.0
    for _ in range(200):
        E = rng.uniform(0.2, 3.0)
        eps = rng.uniform(0.2, 3.0)
        eta = rng.uniform(0.0, 1.0) * math.sqrt(E * eps)
        tau = rng.uniform(0.05, 2.0)
        p = ModelParams(E=E, eps=eps, eta=eta, tau=tau, N=3, beta0=1.0, beta=2.0)
        s = step_scalars(p)
        dev = max(dev, abs(abs(s.g) - 1.0))
        dev = max(dev, abs(abs(s.z) ** 2 + abs(s.w) ** 2 - 1.0))
        dev = max(dev, abs(s.w + np.conj(s.w)))
        V = step_matrix(p, 1)
        dev = max(dev, float(np.max(np.abs(V.conj().T @ V - np.eye(4)))))
    checks.append(VerifyCheck("kernel_step_identities", dev, 1e-12))

    # closed-form propagation vs explicit matrix product
    p20 = replace(params, N=20)
    phase = np.exp(1j * p20.tau * p20.eps)
    dev = 0.0
    for m in (1, 10, 20):
        product = np.eye(21, dtype=complex)
        for n in range(1, m + 1):
            product = product @ (phase * step_matrix(p20, n))
        for _ in range(20):
            zeta = rng.standard_normal(21) + 1j * rng.standard_normal(21)
            direct = product @ zeta
            closed = propagate_vector(p20, m, zeta)
            dev = max(dev, float(np.max(np.abs(direct - closed))))
    checks.append(VerifyCheck("propagation_vs_matrix_product", dev, 1e-10))

    # generator exponential equals the closed-form step
    p6 = replace(params, N=6)
    dev = max(matrix_exponential_check(p6, n) for n in range(1, 7))
    checks.append(VerifyCheck("matrix_exponential", dev, 1e-10))

    # evolved characteristic function is the initial one composed with the step maps
    initial = dynamics.evolve_state(params, 0)
    m_half = max(1, params.N // 2)
    evolved = dynamics.evolve_state(params, m_half)
    dev = 0.0
    for _ in range(10):
        zeta = rng.standard_normal(params.N + 1) + 1j * rng.standard_normal(params.N + 1)
        moved = propagate_vector(params, m_half, zeta)
        dev = max(dev, abs(char_fn(evolved, zeta) - char_fn(initial, moved)))
    checks.append(VerifyCheck("quasifree_composition", dev, 1e-12))

    # marginalization consistency of the pair S + S_m
    dev = 0.0
    m_pair = max(2, min(params.N, 3))
    pair, one, solo = (dynamics.subsystem_slots(kind, m_pair) for kind in ("S_plus_Sm", "S", "Sm"))
    for alpha in (0.5 + 0.0j, 0.2 - 0.4j):
        dev = max(dev, abs(
            dynamics.reduced_char_fn(params, m_pair, pair, [alpha, 0.0])
            - dynamics.reduced_char_fn(params, m_pair, one, alpha)
        ))
        dev = max(dev, abs(
            dynamics.reduced_char_fn(params, m_pair, pair, [0.0, alpha])
            - dynamics.reduced_char_fn(params, m_pair, solo, alpha)
        ))
    checks.append(VerifyCheck("marginalization_consistency", dev, 1e-14))

    # effective-temperature affine identity in the occupations; the weights
    # |z|^2m and 1 - |z|^2m come from L = log|z|^2 = 2 log_abs_z, as in the
    # closed forms
    L = 2.0 * step_scalars(params).log_abs_z
    n0 = occupation(params.beta0)
    nb = occupation(params.beta)
    dev = 0.0
    for m in range(0, min(params.N, 50) + 1):
        nm = occupation(dynamics.effective_beta_S(params, m))
        zsq_m, rest_m = (math.exp(m * L), -math.expm1(m * L)) if m else (1.0, 0.0)
        dev = max(dev, abs(nm - (zsq_m * n0 + rest_m * nb)))
    checks.append(VerifyCheck("effective_beta_affine", dev, 1e-12))

    # window overlap: closed form vs embedding through the propagator
    p10 = replace(params, N=10)
    dev = 0.0
    for n in range(0, 4):
        for k in range(n, 9):
            slots = [0] + list(range(k - n + 1, k + 1))
            if k == 0:
                total = 1.0
            else:
                total = 0.0
                for slot in slots:
                    e = np.zeros(11, dtype=complex)
                    e[slot] = 1.0
                    total += abs(propagate_vector(p10, k, e)[0]) ** 2
            dev = max(dev, abs(total - dynamics.window_overlap_norm_sq(p10, n, k)))
    checks.append(VerifyCheck("window_norm_embedding", dev, 1e-12))

    # entropy production approaches its limit from below at rate |z|^2N;
    # N does not enter the closed form, so a 100-mode chain gives room for
    # 100 steps
    finite = not (math.isinf(params.beta0) or math.isinf(params.beta))
    if finite and step_scalars(params).contracting:
        limit = dynamics.entropy_production_limit(params)
        p100 = replace(params, N=100)
        dev = 0.0
        for n_steps in range(0, 101):
            gap = abs(dynamics.relative_entropy(p100, n_steps) - limit)
            bound = abs(limit) * (math.exp(n_steps * L) if n_steps else 1.0)
            dev = max(dev, max(0.0, gap - bound))
        checks.append(VerifyCheck("entropy_production_tail", dev, 1e-15))

    # the |1> chain's product against its error law, which X = |w|^2/2 <= 1/2 keeps
    # available; the run streams each row's tail (100 + 1000 + 10000 factors) against
    # the series.  Run before the oracle states, it adds nothing to their peak
    try:
        records = short_time_limit_run(params, LimitSchedule(checkpoints=(100, 1_000, 10_000)),
                                       ChainStateSpec(kind="number_state", level=1), [1.0])
        dev = max(max(0.0, abs(r.outputs["abs_error"] - r.outputs["predicted_error"])
                      - r.outputs["law_remainder"]) for r in records)
    except RuntimeError:
        dev = math.inf
    checks.append(VerifyCheck("limit_law", dev, 1e-14))

    # truncated-Fock oracle cross-checks on the three-mode chain
    p2 = replace(params, N=2)
    rho_m = list(oracle_states(p2, cutoff))
    dev = oracle_deltas(p2, 2, rho_m[2], rng, 10)["char_fn_max"]
    checks.append(VerifyCheck("oracle_char_fn", dev, 1e-5))

    dev = max(oracle_deltas(p2, m, rho_m[m], rng, 0)["entropy"] for m in (0, 1, 2))
    checks.append(VerifyCheck("oracle_entropy_constancy", dev, 1e-5))

    if finite:
        dev = abs(
            fock_oracle.relative_entropy_oracle(rho_m[2], rho_m[0])
            - dynamics.relative_entropy(p2, 2)
        )
        checks.append(VerifyCheck("oracle_relative_entropy", dev, 1e-4))

    # short-time limit: the thermal-chain error sequence must decrease
    if finite:
        schedule = LimitSchedule(checkpoints=(100, 1_000, 10_000))
        spec = ChainStateSpec(kind="gibbs", beta=params.beta)
        records = short_time_limit_run(params, schedule, spec, [1.0 + 0.0j])
        errs = [r.outputs["abs_error"] for r in records]
        dev = max(0.0, max(b - a for a, b in zip(errs, errs[1:])))
        checks.append(VerifyCheck("short_time_error_decreasing", dev, 1e-15))

    return checks


def cmd_verify(config: dict, params: ModelParams, tolerance: float | None, cutoff: int) -> tuple[int, str, list[RunRecord]]:
    section = _section(config, "verify", ("seed",))
    seed = _number(section.get("seed", 0), int, "verify.seed")
    checks = run_verification(params, cutoff=cutoff, seed=seed)
    if tolerance is not None:
        checks = [replace(check, tolerance=tolerance) for check in checks]
    lines = []
    records = []
    for i, check in enumerate(checks):
        status = "PASS" if check.passed else "FAIL"
        lines.append(
            f"{status} {check.name}: deviation {check.deviation:.6e}"
            f" tolerance {check.tolerance:.6e}"
        )
        records.append(
            RunRecord(
                run_id=f"verify-{i:04d}",
                inputs=_echo_model(params),
                outputs={
                    "check": check.name,
                    "deviation": check.deviation,
                    "tolerance": check.tolerance,
                    "passed": check.passed,
                },
            )
        )
    failed = sum(not c.passed for c in checks)
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    return (0 if failed == 0 else 1), "\n".join(lines) + "\n", records


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="richain",
        description="Exactly soluble repeated-interaction chain dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "kernel": "step scalars, coupled-mode energies and hypothesis flags",
        "simulate": "per-step effective temperatures and entropies",
        "subsystem": "reduced characteristic functions of a selected subsystem",
        "limit": "short-time universality limit along a power-law schedule",
        "sweep": "grid sweep over model parameters",
        "verify": "run the invariant and oracle cross-check suite",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="path to a JSON config document")
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name in ("simulate", "sweep"):
            p.add_argument("--oracle", action="store_true",
                           help="add truncated-Fock cross-check deltas")
        if name in ("simulate", "sweep", "verify"):
            p.add_argument("--cutoff", type=int, help="per-mode Fock cutoff for oracle paths")
        if name == "verify":
            p.add_argument("--tolerance", type=float,
                           help="override every verification tolerance")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cutoff = getattr(args, "cutoff", None)
        if cutoff is not None and cutoff < 2:
            raise ConfigError(f"--cutoff must be at least 2, got {cutoff}")
        if args.command in ("simulate", "sweep"):
            if cutoff is not None and not args.oracle:
                raise ConfigError("--cutoff sets the oracle's cutoff; it needs --oracle")
            oracle_cutoff = (16 if cutoff is None else cutoff) if args.oracle else None
        config = _load_config(args.config)
        if args.command == "sweep":
            records = cmd_sweep(config, oracle_cutoff)
            _emit(records, args.command, args.output, args.format)
            return 0
        params = _model_from_config(config)
        if args.command == "kernel":
            records = cmd_kernel(params)
        elif args.command == "simulate":
            records = cmd_simulate(config, params, oracle_cutoff)
        elif args.command == "subsystem":
            records = cmd_subsystem(config, params)
        elif args.command == "limit":
            records = cmd_limit(config, params)
        elif args.command == "verify":
            code, report, records = cmd_verify(
                config, params, args.tolerance, 24 if cutoff is None else cutoff
            )
            sys.stdout.write(report)
            if args.output is not None:
                _emit(records, args.command, args.output, args.format)
            return code
        else:  # unreachable given required=True
            raise ConfigError(f"unknown command {args.command!r}")
        _emit(records, args.command, args.output, args.format)
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
