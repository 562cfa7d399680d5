"""Command-line front end.

Subcommands expose the library over a single JSON config document and
emit deterministic CSV or JSON: fixed column order, complex values split
into <name>_re/<name>_im, infinities and NaN as the strings "inf",
"-inf" and "nan".  CSV writes floats with 17 significant digits, each row
with one %-format planned once per record signature; JSON writes the
shortest repr that round-trips.  Identical config must produce
byte-identical output, so nothing time- or environment-dependent is ever
serialized.  A command computes all its records before the first byte is
written, so a failing command writes nothing; the encoders then write to
the destination record by record, so only the records (and a signature
number for each) grow with the output.

Flags alone set --oracle, --cutoff and --tolerance; --cutoff sets the
oracle's cutoff, so on `simulate` and `sweep` it needs --oracle.  A config
key that nothing reads (top level, command section or limit.spec) is an
error, and so is a value of the wrong JSON type: `_read` reads each key by
the one kind its section gives it, and names it on error, as in sweep.grid.N[0].

Exit codes: 0 success, 1 verification failure, 2 configuration or usage
error, which includes an --output file that cannot be opened.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import re
import sys
from dataclasses import replace
from operator import attrgetter

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
    pair_exponential,
    propagate_vector,
    step_matrix,
    step_scalars,
)
from .quasifree import char_fn, occupation

__all__ = ["main", "run_verification"]


class ConfigError(Exception):
    """Malformed config or flags; maps to exit code 2."""


_DEFAULT_MODEL = {
    "E": 2.0, "eps": 1.0, "eta": 0.5, "tau": 1.0, "N": 8,
    "beta0": math.log(3.0), "beta": math.log(2.0),
}


def _parse_beta(value) -> float:
    return math.inf if value == "inf" else float(value)


# what each number kind takes, as its error messages say
_NUMBER_KINDS = {int: "an integer", float: "a number", _parse_beta: 'a number or "inf"'}


def _read(value, kind, where: str):
    """`value` read as `kind`, or a ConfigError naming `where`.  The kinds:
    int, float or _parse_beta for a JSON number (never a bool, and a string
    only as beta's "inf"; int reads by `as_integer`, so 3.9 is no integer),
    complex for a [re, im] pair of finite numbers, [k] for a list of kind k,
    None for the value as given, or a function of (value, where)."""
    if kind is None:
        return value
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"'{where}' must be a list, got {value!r}")
        return [_read(v, kind[0], f"{where}[{i}]") for i, v in enumerate(value)]
    if kind is complex:
        if isinstance(value, list) and len(value) == 2 and all(
            # no inf, NaN or int past the floats
            type(v) in (int, float) and abs(v) <= sys.float_info.max for v in value
        ):
            return complex(float(value[0]), float(value[1]))
        raise ConfigError(f"'{where}' must be a [re, im] pair of finite numbers, got {value!r}")
    if kind not in _NUMBER_KINDS:
        return kind(value, where)
    try:
        if type(value) in (int, float) or (kind, value) == (_parse_beta, "inf"):
            return as_integer(value, where) if kind is int else kind(value)
    except (ValueError, OverflowError):
        pass
    raise ConfigError(f"'{where}' must be {_NUMBER_KINDS[kind]}, got {value!r}")


def _fields(mapping: dict, kinds: dict, where: str) -> dict:
    """`mapping` with each key read by its kind in `kinds`; no kind is an error."""
    unknown = sorted(set(mapping) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {unknown}")
    return {key: _read(value, kinds[key], f"{where}.{key}") for key, value in mapping.items()}


def _section(config: dict, name: str, kinds: dict) -> dict:
    """The config's `name` section, {} if absent, read by `_fields`."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"\"{name}\" section must be an object")
    return _fields(section, kinds, name)


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
    version = config.get("schema_version")
    if type(version) not in (int, float) or version != 1:  # 1.0 reads as 1, true does not
        raise ConfigError("config requires \"schema_version\": 1")
    # each command reads its own section
    sections = ("model", "simulate", "subsystem", "limit", "sweep", "verify")
    return _fields(config, dict.fromkeys(("schema_version", *sections)), "top-level")


# how each model key is read, in the model section and along a sweep grid axis
_MODEL_KINDS = {
    "E": float, "eps": float, "eta": float, "tau": float,
    "beta0": _parse_beta, "beta": _parse_beta, "N": int,
}


def _model_from_config(config: dict) -> ModelParams:
    try:
        return ModelParams(**{**_DEFAULT_MODEL, **_section(config, "model", _MODEL_KINDS)})
    except ValueError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc


# ---------------------------------------------------------------------------
# serialization


# the builtin types a record value already has in split form, checked by exact
# type ahead of the isinstance chain: nearly every value is one of them
_PLAIN = (float, int, str, bool, type(None))


def _plain(value):
    """A numpy (or subclassed) bool, float or int as the builtin; any other value as is."""
    for kind, numpy_kind in ((bool, np.bool_), (float, np.floating), (int, np.integer)):
        if isinstance(value, (kind, numpy_kind)):
            return kind(value)
    return value


def _split(section: dict, prefix: str = "") -> dict:
    """A record section as plain scalars under `prefix` + key: each complex
    value becomes <key>_re and <key>_im floats, and numpy scalars become
    bool, int or float.  The header walk and the JSON writer read this form."""
    out = {}
    for key, value in section.items():
        key = prefix + key
        if type(value) in _PLAIN:
            out[key] = value
        elif isinstance(value, (complex, np.complexfloating)):
            out[key + "_re"] = float(value.real)
            out[key + "_im"] = float(value.imag)
        else:
            out[key] = _plain(value)
    return out


def _signature(section: dict) -> tuple:
    """A section's keys and its values' types, which fix its split keys."""
    return (*section, *map(type, section.values()))


def _csv_columns(records: list[RunRecord]) -> tuple[list[str], list[int]]:
    """The header, the first-seen union of the records' split columns, and each
    record's signature of keys and value types, numbered in first-seen order.
    `_split` runs only on a record whose signature is new."""
    columns, seen, numbers, inputs = {}, {}, [], None
    for r in records:
        if r.inputs is not inputs:  # a simulate run's records share one inputs dict
            inputs, inputs_signature = r.inputs, _signature(r.inputs)
        deltas = r.oracle_deltas or {}
        signature = (inputs_signature, _signature(r.outputs), _signature(deltas))
        number = seen.get(signature)
        if number is None:
            number = seen[signature] = len(seen)
            # dict keys keep first-seen order
            columns.update(dict.fromkeys(
                ["run_id", *_split(inputs), *_split(r.outputs), *_split(deltas, "delta_")]))
        numbers.append(number)
    return list(columns), numbers


# the %-format of a float or int cell and the function that makes a value of
# that type %-ready: 17 significant digits spell inf, -inf and nan so.  Any
# other value is a text cell, "%s" of `_csv_text`
_CSV_FORMS = {float: ("%.17g", float), int: ("%d", int)}
_CSV_SPECIAL = re.compile('[,"\r\n]').search


def _csv_text(value) -> str:
    """A value that is no float or int as csv.writer writes it in a row of
    several cells: true, false, nothing for None, else its str."""
    if value is None or isinstance(value, (bool, np.bool_)):
        return {True: "true", False: "false", None: ""}[value]
    text = str(value)
    if _CSV_SPECIAL(text) is None:
        return text
    buf = io.StringIO()  # this Python's csv decides the quoting
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def _csv_plan(columns: list[str], r: RunRecord) -> tuple[str, list]:
    """The row plan of `r`'s signature: a %-format over the header, with the
    inputs' cells as literal text and nothing in a column `r` lacks, and for
    each %-slot the index of its value in (run_id, *outputs.values(),
    *deltas.values()) and the function that makes that value %-ready."""
    cells = {"run_id": ("%s", _csv_text, 0)}  # later sections win, as in a merged dict
    for column, value in _split(r.inputs).items():
        form, fix = _CSV_FORMS.get(type(value), ("%s", _csv_text))
        cells[column] = ((form % fix(value)).replace("%", "%%"), None, None)
    deltas = {"delta_" + key: value for key, value in (r.oracle_deltas or {}).items()}
    for i, (column, value) in enumerate([*r.outputs.items(), *deltas.items()], 1):
        if isinstance(value, (complex, np.complexfloating)):
            cells[column + "_re"] = ("%.17g", attrgetter("real"), i)
            cells[column + "_im"] = ("%.17g", attrgetter("imag"), i)
        else:
            cells[column] = (*_CSV_FORMS.get(type(_plain(value)), ("%s", _csv_text)), i)
    cells = [cells.get(column, ("", None, None)) for column in columns]
    return ",".join(form for form, _, _ in cells) + "\n", [(i, fix) for _, fix, i in cells if fix]


def _records_csv(records: list[RunRecord], out) -> None:
    """Write the records' CSV to the text stream `out`, each row one % of its plan."""
    columns, numbers = _csv_columns(records)
    # the header as csv writes it, without a csv.writer's 128 KiB record buffer
    out.write(",".join(map(_csv_text, columns)) + "\n")
    inputs, plans = None, {}
    for r, number in zip(records, numbers):
        if r.inputs is not inputs:  # a plan holds its inputs' text
            inputs, plans = r.inputs, {}
        if number not in plans:
            plans[number] = _csv_plan(columns, r)
        fmt, slots = plans[number]
        values = (r.run_id, *r.outputs.values(), *(r.oracle_deltas or {}).values())
        row = fmt % tuple([fix(values[i]) for i, fix in slots])
        out.write(row if row != "\n" else '""\n')  # csv quotes a row's one empty cell


def _json_value(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)  # "inf", "-inf" or "nan"
    return value


# json.dumps with an indent runs the pure-Python encoder.  A flat section takes
# the C encoder in one call: the item separator carries each key's newline and
# indentation
_FLAT_SECTION = json.JSONEncoder(
    sort_keys=True, ensure_ascii=False, separators=(",\n        ", ": "))
_INDENTED = json.JSONEncoder(indent=2, sort_keys=True, ensure_ascii=False)


def _json_section(section: dict) -> str:
    """A record section as json.dumps(indent=2, sort_keys=True) writes it, 6 spaces in."""
    values = {key: _json_value(value) for key, value in _split(section).items()}
    if values and all(type(v) in _PLAIN for v in values.values()):
        return "{\n        " + _FLAT_SECTION.encode(values)[1:-1] + "\n      }"
    # empty, or holding a container (a sweep error record echoes a bad grid value as given)
    return _INDENTED.encode(values).replace("\n", "\n      ")


def _records_json(records: list[RunRecord], command: str, out) -> None:
    """Write json.dumps(indent=2, sort_keys=True, ensure_ascii=False) of
    {"schema_version": 1, "command": ..., "records": [...]} to the text stream
    `out`, byte for byte, one record at a time."""
    out.write(f'{{\n  "command": {_INDENTED.encode(command)},\n  "records": ')
    opening, inputs, echo = "[\n", None, ""
    for r in records:
        if r.inputs is not inputs:  # a simulate run's records share one inputs dict
            inputs, echo = r.inputs, _json_section(r.inputs)
        deltas = _json_section(r.oracle_deltas) if r.oracle_deltas else "null"
        out.write(f'{opening}    {{\n      "inputs": {echo},\n      "oracle_deltas": {deltas},\n'
                  f'      "outputs": {_json_section(r.outputs)},\n'
                  f'      "run_id": {_INDENTED.encode(r.run_id)}\n    }}')
        opening = ",\n"
    out.write(("\n  ]" if records else "[]") + ',\n  "schema_version": 1\n}\n')


def _emit(records: list[RunRecord], command: str, output: str | None, fmt: str) -> None:
    """Write the records to the file `output`, or to stdout if it is None; a
    file that cannot be opened is a ConfigError."""
    try:
        destination = contextlib.nullcontext(sys.stdout) if output is None else open(
            output, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    with destination as out:
        if fmt == "csv":
            _records_csv(records, out)
        else:
            _records_json(records, command, out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_kernel(params: ModelParams) -> list[RunRecord]:
    """One record with the step scalars, coupled-mode energies and flags."""
    outputs = {**kernel_outputs(params), "matexp_deviation_max": matrix_exponential_check(params)}
    return [RunRecord(run_id="kernel-0000", inputs=_echo_model(params), outputs=outputs)]


def _echo_model(params: ModelParams) -> dict:
    return {name: getattr(params, name) for name in _DEFAULT_MODEL}


def cmd_simulate(config: dict, params: ModelParams, cutoff: int | None) -> list[RunRecord]:
    """Per-step rows of the dynamical quantities, oracle-checked at `cutoff`
    unless it is None.  The rows come from `dynamics.trajectory`, which forms
    the model's constants once: O(1) scalars per row, and char_S is S's
    Gibbs value at the occupation beta* inverts, with no state built.  At
    N = 4000 the records take about 9 ms in process on a 2-vCPU Xeon VM."""
    section = _section(config, "simulate", {"alpha_sample": complex, "seed": int})
    alpha = section.get("alpha_sample", complex(0.5, 0.0))
    seed = section.get("seed", 0)
    states = itertools.repeat(None) if cutoff is None else oracle_states(params, cutoff)

    inputs = {**_echo_model(params), "alpha_sample": alpha}  # one echo for every row
    records = []
    rows = zip(range(params.N + 1), dynamics.trajectory(params, alpha), states)
    for m, (beta_star, beta_star_star, production, total, char_S), rho in rows:
        outputs = {
            "m": m,
            "beta_star": beta_star,
            "beta_star_star": beta_star_star,
            "relative_entropy": production,
            "total_entropy": total,
            # complex, so the column keeps its _re/_im pair
            "char_S": complex(char_S),
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
    section = _section(config, "subsystem", {  # n null, as the JSON echo writes it, is no n
        "kind": None, "m": int, "alphas": [[complex]],
        "n": lambda value, where: None if value is None else _read(value, int, where)})
    kind, m, n = section.get("kind", "S"), section.get("m", params.N), section.get("n")
    slots = dynamics.subsystem_slots(kind, m, n)
    tuples = section.get("alphas", [[complex(0.5, 0.0)] * len(slots)])
    if not tuples:
        raise ConfigError("subsystem.alphas must be a nonempty list of argument tuples")

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

    inputs = {**_echo_model(params), "kind": kind, "m": m, "n": n}  # one echo for every record
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
        records.append(RunRecord(run_id=f"subsystem-{i:04d}", inputs=inputs, outputs=outputs))
    return records


def _read_spec(raw, where: str) -> ChainStateSpec:
    """limit.spec: a "kind" and that kind's one key, read as a section's are."""
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"{where} must be an object with a \"kind\"")
    kind = raw["kind"]
    if kind == "custom":
        raise ConfigError("custom chain states are a library-level feature, not a config one")
    if kind not in ("gibbs", "number_state"):
        raise ConfigError(f"unknown chain-state kind {kind!r}")
    key, key_kind, default = (
        ("beta", _parse_beta, _DEFAULT_MODEL["beta"]) if kind == "gibbs" else ("level", int, 1))
    fields = _fields(raw, {"kind": None, key: key_kind}, where)
    try:
        return ChainStateSpec(**{key: default, **fields})
    except ValueError as exc:
        raise ConfigError(f"invalid chain-state spec: {exc}") from exc


def cmd_limit(config: dict, params: ModelParams) -> list[RunRecord]:
    section = _section(config, "limit", {"exponent": float, "multiplier": float,
                                         "checkpoints": [int], "spec": _read_spec, "thetas": [complex]})
    spec = section.pop("spec", None) or _read_spec({"kind": "gibbs"}, "limit.spec")
    thetas = section.pop("thetas", [1.0 + 0j])
    try:
        schedule = LimitSchedule(**section)  # the schedule keys the config gives
    except ValueError as exc:
        raise ConfigError(f"invalid schedule: {exc}") from exc
    return short_time_limit_run(params, schedule, spec, thetas)


def _read_grid(grid, where: str):
    """The sweep grid, each model axis's list read; `sweep` checks its shape."""
    if not isinstance(grid, dict):
        return grid
    return {  # a copy: the caller's config stays as it was
        key: _read(values, [_MODEL_KINDS[key]], f"{where}.{key}")
        if key in _MODEL_KINDS and isinstance(values, list) else values
        for key, values in grid.items()
    }


def cmd_sweep(config: dict, cutoff: int | None) -> list[RunRecord]:
    """The sweep over the config's grid, oracle-checked at `cutoff` unless
    it is None."""
    if "sweep" not in config:
        raise ConfigError("sweep requires a \"sweep\" section in the config")
    section = _section(config, "sweep", {"grid": _read_grid, "seed": int})
    return sweep(section.get("grid"), cutoff=cutoff, seed=section.get("seed", 0))


# ---------------------------------------------------------------------------
# verification suite


def _check_record(index: int, inputs: dict, name: str, deviation, tolerance: float) -> RunRecord:
    """Check `index` of a verify run as the record it writes: the deviation as
    a float, and passed as deviation <= tolerance."""
    deviation = float(deviation)  # a numpy deviation would make passed a numpy bool
    return RunRecord(run_id=f"verify-{index:04d}", inputs=inputs, outputs={
        "check": name, "deviation": deviation, "tolerance": tolerance,
        "passed": deviation <= tolerance})


def run_verification(params: ModelParams, cutoff: int = 24, seed: int = 0) -> list[RunRecord]:
    """The invariant suite behind `richain verify`, one record per check.

    Every check reports its measured deviation against its own
    tolerance; a check that the oracle or a limit run cannot evaluate
    reads deviation inf.  Fully deterministic for a fixed seed.
    """
    echo = _echo_model(params)  # one echo for every check
    checks: list[RunRecord] = []

    def check(name: str, deviation, tolerance: float) -> None:
        checks.append(_check_record(len(checks), echo, name, deviation, tolerance))

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
    check("kernel_step_identities", dev, 1e-12)

    # the explicit products P_m = U_1...U_m of the steps on a 20-mode chain: the
    # one reference of the four closed-form checks below.  U_n is the generator's
    # own exponential on slots {0, n} and the free phase e^(i tau eps) elsewhere,
    # so the products read none of the step scalars the closed forms use
    p20 = replace(params, N=20)
    pair = pair_exponential(params)
    phase = np.exp(1j * params.tau * params.eps)
    products = [np.eye(21, dtype=complex)]
    for n in range(1, 21):
        step = products[-1] * phase
        step[:, [0, n]] = products[-1][:, [0, n]] @ pair
        products.append(step)

    dev = 0.0
    for m in (1, 10, 20):
        for _ in range(20):
            zeta = rng.standard_normal(21) + 1j * rng.standard_normal(21)
            direct = products[m] @ zeta
            dev = max(dev, float(np.max(np.abs(direct - propagate_vector(p20, m, zeta)))))
    check("propagation_vs_matrix_product", dev, 1e-10)

    # generator exponential equals the closed-form step
    check("matrix_exponential", matrix_exponential_check(params), 1e-10)

    # the evolved characteristic function is the initial one at P_m zeta.  |zeta|^2
    # = 1/(2n + 1), n the larger occupation, keeps the values at least e^(-1/4),
    # where a unit zeta underflows them to 0 on a hot model
    n0, nb = occupation(params.beta0), occupation(params.beta)
    initial = dynamics.reduced_state(p20, 0, range(21))
    dev = 0.0
    for m in (1, 10, 20):
        evolved = dynamics.reduced_state(p20, m, range(21))
        for _ in range(10):
            zeta = rng.standard_normal(21) + 1j * rng.standard_normal(21)
            zeta /= np.linalg.norm(zeta) * math.sqrt(2.0 * max(n0, nb) + 1.0)
            dev = max(dev, abs(char_fn(evolved, zeta) - char_fn(initial, products[m] @ zeta)))
    check("quasifree_composition", dev, 1e-12)

    # marginalization consistency of the pair S + S_m, and S's marginal
    # against its Gibbs closed form
    dev = 0.0
    m_pair = min(params.N, 3)
    pair, one, solo = (dynamics.subsystem_slots(kind, m_pair) for kind in ("S_plus_Sm", "S", "Sm"))
    for alpha in (0.5 + 0.0j, 0.2 - 0.4j):
        marginal = dynamics.reduced_char_fn(params, m_pair, one, alpha)
        dev = max(dev, abs(dynamics.reduced_char_fn(params, m_pair, pair, [alpha, 0.0]) - marginal))
        dev = max(dev, abs(dynamics.char_fn_S(params, m_pair, alpha) - marginal))
        dev = max(dev, abs(
            dynamics.reduced_char_fn(params, m_pair, pair, [0.0, alpha])
            - dynamics.reduced_char_fn(params, m_pair, solo, alpha)
        ))
    check("marginalization_consistency", dev, 1e-14)

    # S's occupation after m steps mixes n(beta0) and n(beta) with the weights
    # |P_m[0, 0]|^2 and |P_m[0, j]|^2, j >= 1.  Each is rounded at about an ulp
    # of the larger occupation, so the gate scales with it
    dev = 0.0
    for m, product in enumerate(products):
        weights = np.abs(product[0]) ** 2
        affine = weights[0] * n0 + weights[1:].sum() * nb
        dev = max(dev, abs(occupation(dynamics.effective_beta_S(p20, m)) - affine))
    check("effective_beta_affine", dev, 1e-12 * max(1.0, n0, nb))

    # the entropy production after m steps is (beta0 - beta)(n* - n(beta0)), and n* -
    # n(beta0) is the chain slots' weight sum_(j >= 1) |P_m[0, j]|^2 times n(beta) -
    # n(beta0).  The gate is effective_beta_affine's times |beta0 - beta|
    finite = not (math.isinf(params.beta0) or math.isinf(params.beta))
    if finite:
        dev = 0.0
        for m, product in enumerate(products):
            chain = (np.abs(product[0, 1:]) ** 2).sum()
            reference = (params.beta0 - params.beta) * chain * (nb - n0)
            dev = max(dev, abs(dynamics.relative_entropy(p20, m) - reference))
        check("entropy_production_affine", dev,
              1e-12 * abs(params.beta0 - params.beta) * max(1.0, n0, nb))

    # the window of S and its n latest partners holds the weights |P_k[0, j]|^2 of its slots
    dev = 0.0
    for n in range(0, 4):
        for k in range(n, 21):
            weights = np.abs(products[k][0, dynamics.subsystem_slots("window", k, n)]) ** 2
            dev = max(dev, abs(weights.sum() - dynamics.window_overlap_norm_sq(p20, n, k)))
    check("window_norm_embedding", dev, 1e-12)
    del products  # ahead of the oracle states

    # entropy production approaches its limit from below at rate |z|^2N;
    # N does not enter the closed form, so a 100-mode chain gives room for
    # 100 steps.  The gap and its bound each round at about an ulp of the
    # limit, so the gate scales with it
    s = step_scalars(params)
    if finite and s.contracting:
        limit = dynamics.entropy_production_limit(params)
        p100 = replace(params, N=100)
        dev = 0.0
        for n_steps in range(0, 101):
            gap = abs(dynamics.relative_entropy(p100, n_steps) - limit)
            bound = abs(limit) * s.zsq_power(n_steps)
            dev = max(dev, max(0.0, gap - bound))
        check("entropy_production_tail", dev, 4.0 * sys.float_info.epsilon * abs(limit))

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
    check("limit_law", dev, 1e-14)

    # truncated-Fock oracle cross-checks on the three-mode chain
    p2 = replace(params, N=2)
    rho_m = list(oracle_states(p2, cutoff))
    dev = oracle_deltas(p2, 2, rho_m[2], rng, 10)["char_fn_max"]
    check("oracle_char_fn", dev, 1e-5)

    dev = max(oracle_deltas(p2, m, rho_m[m], rng, 0)["entropy"] for m in (0, 1, 2))
    check("oracle_entropy_constancy", dev, 1e-5)

    if finite:
        dev = abs(fock_oracle.relative_entropy_oracle(rho_m[2], rho_m[0])
                  - dynamics.relative_entropy(p2, 2))
        check("oracle_relative_entropy", dev, 1e-4)

    # short-time limit: the thermal-chain error sequence must decrease
    if finite:
        schedule = LimitSchedule(checkpoints=(100, 1_000, 10_000))
        spec = ChainStateSpec(kind="gibbs", beta=params.beta)
        try:
            errs = [r.outputs["abs_error"]
                    for r in short_time_limit_run(params, schedule, spec, [1.0 + 0.0j])]
            dev = max(0.0, max(b - a for a, b in zip(errs, errs[1:])))
        except RuntimeError:
            dev = math.inf
        check("short_time_error_decreasing", dev, 1e-15)

    return checks


def cmd_verify(config: dict, params: ModelParams, tolerance: float | None, cutoff: int) -> tuple[int, str, list[RunRecord]]:
    seed = _section(config, "verify", {"seed": int}).get("seed", 0)
    records = run_verification(params, cutoff=cutoff, seed=seed)
    if tolerance is not None:
        records = [_check_record(i, r.inputs, r.outputs["check"], r.outputs["deviation"], tolerance)
                   for i, r in enumerate(records)]
    lines = [f"{'PASS' if o['passed'] else 'FAIL'} {o['check']}: deviation {o['deviation']:.6e}"
             f" tolerance {o['tolerance']:.6e}" for o in (r.outputs for r in records)]
    failed = sum(not r.outputs["passed"] for r in records)
    lines.append(f"{len(records) - failed}/{len(records)} checks passed")
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
        tolerance = getattr(args, "tolerance", None)
        if tolerance is not None and not 0.0 <= tolerance < math.inf:  # NaN fails both
            raise ConfigError(f"--tolerance must be a finite number >= 0, got {tolerance}")
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
                config, params, tolerance, 24 if cutoff is None else cutoff
            )
            if args.output is not None:  # ahead of the report: an error writes nothing
                _emit(records, args.command, args.output, args.format)
            sys.stdout.write(report)
            return code
        else:  # unreachable given required=True
            raise ConfigError(f"unknown command {args.command!r}")
        _emit(records, args.command, args.output, args.format)
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a limit run's monotone, law or cross-check gate
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
