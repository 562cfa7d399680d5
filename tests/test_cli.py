"""Config handling, deterministic emission and exit codes of the CLI."""

import copy
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import richain
from richain import dynamics
from richain.cli import (
    _build_parser,
    _emit,
    _json_value,
    _model_from_config,
    _records_csv,
    _records_json,
    _split,
    cmd_kernel,
    cmd_simulate,
    cmd_subsystem,
    cmd_sweep,
    cmd_verify,
    main,
    run_verification,
)
from richain.experiments import RunRecord, sweep

REPO = Path(__file__).resolve().parents[1]

STD_MODEL = {
    "E": 1.0, "eps": 1.0, "eta": 0.5, "tau": 1.0,
    "N": 2, "beta0": math.log(3), "beta": math.log(2),
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKernelCommand:
    def test_csv_shape_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "kernel")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert header[0] == "run_id"
        assert {"g_re", "g_im", "w_re", "w_im", "z_re", "z_im",
                "abs_z_sq", "eps0", "eps1"} <= set(header)
        assert "wall_time" not in header
        row = dict(zip(header, lines[1].split(",")))
        assert row["run_id"] == "kernel-0000"
        # default model: E=2, eps=1, eta=0.5, tau=1
        assert abs(float(row["g_re"]) - math.cos(0.5)) < 1e-15
        assert row["w_re"] == "0"

    def test_seventeen_digit_floats(self, capsys):
        _, out, _ = run_cli(capsys, "kernel")
        header, row = (line.split(",") for line in out.splitlines())
        cells = dict(zip(header, row))
        assert cells["beta0"] == "1.0986122886681098"
        assert cells["beta"] == "0.69314718055994529"

    def test_matexp_on_the_first_eight_slots(self, monkeypatch):
        # at N = 4000 each dense check would be 4001 x 4001: the deviation
        # comes from the chain of the first min(N, 8) slots, as at N = 8
        import richain.cli as cli

        sizes = []
        check = cli.matrix_exponential_check
        monkeypatch.setattr(cli, "matrix_exponential_check",
                            lambda params, n: sizes.append(params.N) or check(params, n))
        (large,) = cmd_kernel(_model_from_config({"model": {"N": 4000}}))
        assert sizes == [8] * 8
        (eight,) = cmd_kernel(_model_from_config({"model": {"N": 8}}))
        assert large.outputs == eight.outputs
        assert large.inputs == {**eight.inputs, "N": 4000}

    def test_byte_identical_reruns(self, capsys):
        _, a, _ = run_cli(capsys, "kernel")
        _, b, _ = run_cli(capsys, "kernel")
        assert a == b

    def test_resonant_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "model": {"E": 1.0, "eps": 1.0, "eta": 1.0, "tau": math.pi / 4, "N": 2},
        })
        _, out, _ = run_cli(capsys, "kernel", "--config", cfg)
        header, row = (line.split(",") for line in out.splitlines())
        cells = dict(zip(header, row))
        assert abs(float(cells["w_im"]) - 1.0 / math.sqrt(2)) < 1e-15
        assert abs(float(cells["z_re"]) - 1.0 / math.sqrt(2)) < 1e-15


class TestJsonFormat:
    def test_round_trip_is_byte_identical(self, tmp_path):
        out_path = tmp_path / "kernel.json"
        assert main(["kernel", "--format", "json", "--output", str(out_path)]) == 0
        text = out_path.read_text(encoding="utf-8")
        obj = json.loads(text)
        assert json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n" == text

    def test_structure(self, tmp_path):
        out_path = tmp_path / "kernel.json"
        main(["kernel", "--format", "json", "--output", str(out_path)])
        obj = json.loads(out_path.read_text(encoding="utf-8"))
        assert obj["schema_version"] == 1
        assert obj["command"] == "kernel"
        rec = obj["records"][0]
        assert rec["oracle_deltas"] is None
        assert "w_re" in rec["outputs"] and "w_im" in rec["outputs"]
        assert "wall_time" not in rec


def csv_text(records):
    buf = io.StringIO()
    _records_csv(records, buf)
    return buf.getvalue()


def json_text(records, command):
    buf = io.StringIO()
    _records_json(records, command, buf)
    return buf.getvalue()


def reference_json(records, command):
    """The JSON text of `records` through json.dumps' general encoder."""
    def encode(section):
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


class TestJsonBytes:
    """`_records_json` frames each section's C-encoder text itself: the bytes
    must be those of json.dumps(indent=2) over the whole payload."""

    @staticmethod
    def assert_same_bytes(records, command):
        assert json_text(records, command) == reference_json(records, command)

    def test_every_subcommand(self):
        params = _model_from_config({})
        small = _model_from_config({"model": STD_MODEL})
        self.assert_same_bytes(cmd_kernel(params), "kernel")
        self.assert_same_bytes(cmd_simulate({}, params, None), "simulate")
        with_deltas = cmd_simulate({}, small, 8)
        assert all(r.oracle_deltas for r in with_deltas)
        self.assert_same_bytes(with_deltas, "simulate")
        inf_model = _model_from_config({"model": dict(STD_MODEL, beta0="inf")})
        self.assert_same_bytes(cmd_simulate({}, inf_model, None), "simulate")
        config = {"subsystem": {"kind": "window", "m": 5, "n": 2}}
        self.assert_same_bytes(cmd_subsystem(config, params), "subsystem")
        self.assert_same_bytes(cmd_subsystem({}, params), "subsystem")
        self.assert_same_bytes(cmd_verify({}, params, None, 6)[2], "verify")
        grid = {"E": [1.0, 2.0], "eps": [1.0], "eta": [0.5, 9.0], "tau": [1.0],
                "beta0": ["inf", math.log(3)], "beta": [math.log(2)], "N": [2]}
        self.assert_same_bytes(cmd_sweep({"sweep": {"grid": grid}}, 8), "sweep")

    def test_limit(self, tmp_path):
        out_path = tmp_path / "limit.json"
        assert main(["limit", "--format", "json", "--output", str(out_path)]) == 0
        records = json.loads(out_path.read_text(encoding="utf-8"))["records"]
        assert records and all(r["oracle_deltas"] is None for r in records)
        payload = {"schema_version": 1, "command": "limit", "records": records}
        expect = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert out_path.read_text(encoding="utf-8") == expect

    def test_containers_non_ascii_and_empty_sections(self):
        # a bad grid entry is echoed as given, list and all
        grid = {"E": [[1.0, 2.0], 2.0], "eps": [1.0], "eta": [0.5], "tau": [1.0],
                "beta0": [1.0], "beta": [2.0], "N": [2, 2.5]}
        records = sweep(grid)
        assert records[0].inputs["E"] == [1.0, 2.0] and "error" in records[0].outputs
        self.assert_same_bytes(records, "sweep")
        self.assert_same_bytes([
            RunRecord("r-é", {"axis": [1, math.nan, {"b": "ü", "a": []}]},
                      {"error": "β must lie in (0, +inf] — got \"−1\"\n"}, {}),
            RunRecord("r-1", {}, {}, {"gap": math.inf, "neg": -math.inf, "nan": math.nan}),
            TestRecordEncoding.RECORD,
        ], "tëst")
        self.assert_same_bytes([], "empty")


def reference_csv(records):
    """The CSV text of `records` with every row held: one dict per row, the
    first-seen union of their keys as the header, one csv.writer."""
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format(value, ".17g")
        return "" if value is None else str(value)

    rows = [{"run_id": r.run_id, **_split(r.inputs), **_split(r.outputs),
             **_split(r.oracle_deltas or {}, "delta_")} for r in records]
    columns = list(dict.fromkeys(col for row in rows for col in row))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell(row.get(col)) for col in columns])
    return buf.getvalue()


class TestStreamedEncoders:
    """The encoders write one record at a time: the CSV header comes from a
    first walk over the records' key signatures, each row from a second."""

    def test_csv_of_every_subcommand(self):
        params = _model_from_config({})
        small = _model_from_config({"model": STD_MODEL})
        inf_model = _model_from_config({"model": dict(STD_MODEL, beta0="inf")})
        grid = {"E": [1.0, 2.0], "eps": [1.0], "eta": [0.5, 9.0], "tau": [1.0],
                "beta0": ["inf", math.log(3)], "beta": [math.log(2)], "N": [2]}
        for records in (
            cmd_kernel(params),
            cmd_simulate({}, params, None),
            cmd_simulate({}, small, 8),
            cmd_simulate({}, inf_model, None),
            cmd_subsystem({"subsystem": {"kind": "window", "m": 5, "n": 2}}, params),
            cmd_subsystem({}, params),
            cmd_verify({}, params, None, 6)[2],
            cmd_sweep({"sweep": {"grid": grid}}, 8),
        ):
            assert csv_text(records) == reference_csv(records), records[0].run_id

    def test_csv_of_mixed_error_and_normal_rows(self):
        # error rows echo a bad grid value as given and have an error column
        # but none of the normal rows' outputs
        grid = {"E": [[1.0, 2.0], 2.0], "eps": [1.0], "eta": [0.5], "tau": [1.0],
                "beta0": [1.0], "beta": [2.0], "N": [2, 2.5]}
        records = sweep(grid)
        assert {"error" in r.outputs for r in records} == {True, False}
        assert csv_text(records) == reference_csv(records)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emit_holds_no_more_than_a_row(self, fmt):
        # simulate's 4,001 records written whole cost 4.1 MiB (CSV) and
        # 7.4 MiB (JSON) of peak over the records
        records = cmd_simulate({}, _model_from_config({"model": {"N": 4000}}), None)
        tracemalloc.start()
        try:
            _emit(records, "simulate", os.devnull, fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (fmt, peak)


# every kind of value a record can hold, the edges of each kind among them
_EDGE_FLOATS = st.sampled_from(
    [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308])
_CELL_TEXT = st.text(
    st.sampled_from([",", '"', "\r", "\n", " ", "%", "a", "7", "é", "β", "—"]), max_size=6)
_VALUES = st.one_of(
    _EDGE_FLOATS, st.floats(),
    st.integers(-(2**70), 2**70), st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.booleans(), st.booleans().map(np.bool_), st.none(),
    st.complex_numbers(), st.complex_numbers(max_magnitude=1e300).map(np.complex128),
    _CELL_TEXT,
    st.lists(st.integers() | st.floats(), max_size=3),  # a sweep error record echoes a bad grid value
)
# few keys, so that sections share and collide on split columns
_SECTIONS = st.dictionaries(st.sampled_from(["a", "b", "c", "c_re", "delta_a", "run_id", "k,%"]),
                            _VALUES, max_size=4)


@st.composite
def _record_runs(draw):
    """Records in runs that each share one inputs dict, as simulate's do; each
    record draws its own output and delta keys and types."""
    records = []
    for run in range(draw(st.integers(1, 3))):
        inputs = draw(_SECTIONS)
        for _ in range(draw(st.integers(1, 4))):
            run_id = draw(_CELL_TEXT | st.just(f"run-{run}"))
            records.append(RunRecord(run_id, inputs, draw(_SECTIONS), draw(st.none() | _SECTIONS)))
    return records


class TestCsvPlans:
    """The per-signature row plans write the bytes csv.writer writes."""

    @settings(max_examples=300, deadline=None)
    @given(_record_runs())
    @example([RunRecord("", {}, {}), RunRecord("x", {}, {}, {}), RunRecord("", {}, {})])  # one column
    @example([RunRecord("r", {"a": "5%d%"}, {"x": 1.0})])  # a % in the echoed inputs
    @example([RunRecord("r", {"a": 1.0}, {}), RunRecord("s", {"a": 2.0}, {})])  # two inputs, one signature
    def test_csv_matches_the_reference(self, records):
        assert csv_text(records) == reference_csv(records)


class TestRecordEncoding:
    """CSV and JSON encode one split form of every value a record holds."""

    RECORD = RunRecord(
        run_id="r-0000",
        inputs={"flag": True, "np_flag": np.bool_(False), "count": 3, "np_count": np.int64(-4)},
        outputs={
            "x": 0.1, "nan": math.nan, "up": math.inf, "down": -math.inf,
            "c": complex(1.5, -0.25), "np_c": np.complex128(2.0 - 1.0j),
            "none": None, "label": "a,b",
        },
        oracle_deltas={"gap": np.float64(1.0) / 3.0},
    )
    EXPECTED = {
        "run_id": ("r-0000", "r-0000"),
        "flag": ("true", True), "np_flag": ("false", False),
        "count": ("3", 3), "np_count": ("-4", -4),
        "x": ("0.10000000000000001", 0.1), "nan": ("nan", "nan"),
        "up": ("inf", "inf"), "down": ("-inf", "-inf"),
        "c_re": ("1.5", 1.5), "c_im": ("-0.25", -0.25),
        "np_c_re": ("2", 2.0), "np_c_im": ("-1", -1.0),
        "none": ("", None), "label": ("a,b", "a,b"),
        "delta_gap": ("0.33333333333333331", 1.0 / 3.0),
    }

    def test_csv_cells(self):
        header, row = csv.reader(csv_text([self.RECORD]).splitlines())
        assert header == list(self.EXPECTED)
        assert row == [csv_cell for csv_cell, _ in self.EXPECTED.values()]

    def test_json_values(self):
        rec = json.loads(json_text([self.RECORD], "test"))["records"][0]
        values = {"run_id": rec["run_id"], **rec["inputs"], **rec["outputs"],
                  **{"delta_" + k: v for k, v in rec["oracle_deltas"].items()}}
        assert values == {key: json_value for key, (_, json_value) in self.EXPECTED.items()}
        for key, (_, json_value) in self.EXPECTED.items():
            assert type(values[key]) is type(json_value), key


class TestSimulateCommand:
    def test_per_step_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 1, "model": STD_MODEL})
        code, out, _ = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 3  # header + m = 0, 1, 2
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert [r["m"] for r in rows] == ["0", "1", "2"]
        # m = 0 has no freshly interacted chain mode
        assert rows[0]["beta_star_star"] == "nan"
        assert rows[0]["relative_entropy"] == "0"
        assert abs(float(rows[2]["relative_entropy"]) - 0.082485226948163533) < 1e-15
        totals = {r["total_entropy"] for r in rows}
        assert len(totals) == 1

    def test_rows_never_build_the_full_chain(self, tmp_path, capsys, monkeypatch):
        # without --oracle every row is O(1): no (N+1)-mode evolved state
        def full_state(*args):
            raise AssertionError("simulate built the full evolved state")

        monkeypatch.setattr(dynamics, "evolve_state", full_state)
        model = dict(STD_MODEL, N=40)
        cfg = write_config(tmp_path, {"schema_version": 1, "model": model})
        code, out, _ = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 0
        assert len(out.splitlines()) == 1 + 41

    def test_rows_build_no_reduced_state(self, tmp_path, capsys, monkeypatch):
        # char_S comes from S's occupation in scalars, not from a rank-one state
        def state(*args):
            raise AssertionError("simulate built a reduced state")

        monkeypatch.setattr(dynamics, "reduced_state", state)
        cfg = write_config(tmp_path, {"schema_version": 1, "model": dict(STD_MODEL, N=40)})
        code, out, _ = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 0
        assert len(out.splitlines()) == 1 + 41

    @pytest.mark.parametrize("model, alpha", [
        ({"N": 4000}, [0.5, 0.0]),
        ({"N": 400}, [0.3, -0.7]),
        ({"N": 400}, [0.0, 0.0]),
        ({"N": 400, "beta0": 50.0}, [0.5, 0.0]),
        ({"N": 400, "beta": "inf"}, [0.3, -0.7]),
        ({"N": 400, "beta0": "inf"}, [0.5, 0.0]),
        ({"N": 400, "beta": 1e-3}, [0.02, 0.01]),
        ({"N": 400, "beta": 1e-3}, [0.5, 0.0]),
        ({"N": 400, "beta0": 50.0, "beta": "inf"}, [2.0, 1.5]),
        ({"N": 400, "beta": 800}, [0.5, 0.0]),
        ({"N": 400, "tau": 1e-6}, [0.3, -0.7]),
    ])
    def test_char_S_matches_the_rank_one_state(self, model, alpha):
        # char_S is S's Gibbs value from n*; reduced_char_fn builds the rank-one
        # state on slot 0.  Both are exp of an exponent rounded to about 1e-16
        # relative, so the values agree to 1e-15 relative, times the exponent
        # where that passes 1 (about 125 at beta = 1e-3 and |alpha| = 0.5).
        # Every row is the per-m functions' value, bit for bit: the trajectory
        # runs their formulas on constants it forms once
        config = {"model": model, "simulate": {"alpha_sample": alpha}}
        params = _model_from_config(config)
        records = cmd_simulate(config, params, None)
        assert len(records) == params.N + 1
        a = complex(*alpha)
        finite = not (math.isinf(params.beta0) or math.isinf(params.beta))
        nan = float("nan")
        for m, record in enumerate(records):
            expect_row = [
                dynamics.effective_beta_S(params, m),
                dynamics.effective_beta_Sm(params, m) if m else nan,
                dynamics.relative_entropy(params, m) if finite else nan,
                dynamics.total_entropy(params, m),
                dynamics.char_fn_S(params, m, a),
            ]
            row = [record.outputs[k] for k in ("beta_star", "beta_star_star", "relative_entropy",
                                               "total_entropy")] + [record.outputs["char_S"].real]
            # NaN matches NaN; every other value matches with ==
            assert [x == y or x != x and y != y for x, y in zip(row, expect_row)] == [True] * 5, m
            got = record.outputs["char_S"]
            assert got.imag == 0.0
            expect = dynamics.reduced_char_fn(params, m, [0], a)
            assert expect.imag == 0.0 and expect.real > 0.0
            exponent = -math.log(expect.real)
            assert abs(got.real - expect.real) <= 1e-15 * expect.real * max(1.0, exponent), m

    def test_infinite_beta_roundtrips_as_inf(self, tmp_path, capsys):
        model = dict(STD_MODEL)
        model["beta0"] = "inf"
        cfg = write_config(tmp_path, {"schema_version": 1, "model": model})
        code, out, _ = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 0
        header, *rows = (line.split(",") for line in out.splitlines())
        cells = dict(zip(header, rows[0]))
        assert cells["beta0"] == "inf"
        assert cells["relative_entropy"] == "nan"

    def test_oracle_deltas(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 1, "model": STD_MODEL})
        code, out, _ = run_cli(capsys, "simulate", "--config", cfg, "--oracle",
                               "--cutoff", "16")
        assert code == 0
        header, *rows = (line.split(",") for line in out.splitlines())
        for row in rows:
            cells = dict(zip(header, row))
            assert float(cells["delta_char_fn_max"]) < 1e-4
            assert float(cells["delta_entropy"]) < 1e-3

    def test_oracle_needs_small_chain(self, capsys):
        # default model has N = 8
        code, _, err = run_cli(capsys, "simulate", "--oracle")
        assert code == 2
        assert "N <= 2" in err


class TestSubsystemCommand:
    def test_window_selector(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "model": {"N": 12},
            "subsystem": {
                "kind": "window", "m": 9, "n": 2,
                "alphas": [[[0.5, 0.0], [0.1, 0.2], [0.3, -0.1]]],
            },
        })
        code, out, _ = run_cli(capsys, "subsystem", "--config", cfg)
        assert code == 0
        header, row = (line.split(",") for line in out.splitlines())
        cells = dict(zip(header, row))
        assert 0.0 < float(cells["value_re"]) <= 1.0
        assert float(cells["window_norm_sq"]) > 0.0
        assert float(cells["window_entropy"]) > 0.0

    @pytest.mark.parametrize("kind, n, arity", [
        ("S", None, 1), ("S1", None, 1), ("Sm", None, 1), ("S_plus_Sm", None, 2),
        ("Smn_plus_Sm", 3, 2), ("window", 3, 4),
    ])
    def test_every_kind(self, tmp_path, capsys, kind, n, arity):
        cfg = write_config(tmp_path, {
            "schema_version": 1, "subsystem": {"kind": kind, "m": 8, "n": n},
        })
        code, out, _ = run_cli(capsys, "subsystem", "--config", cfg)
        assert code == 0
        header, row = (line.split(",") for line in out.splitlines())
        cells = dict(zip(header, row))
        assert cells["kind"] == kind
        assert [f"alpha{j}_re" in cells for j in range(arity + 1)] == [True] * arity + [False]
        assert 0.0 < float(cells["value_re"]) <= 1.0

    def test_arity_mismatch_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "subsystem": {"kind": "S_plus_Sm", "m": 2, "alphas": [[[0.5, 0.0]]]},
        })
        code, _, err = run_cli(capsys, "subsystem", "--config", cfg)
        assert code == 2
        assert "selector needs" in err

    def test_null_n_is_no_n(self, tmp_path, capsys):
        # null is how the JSON echo writes an absent n
        outs = []
        for extra in ({}, {"n": None}):
            cfg = write_config(tmp_path, {"schema_version": 1,
                                          "subsystem": {"kind": "S", "m": 2, **extra}})
            for fmt in ("csv", "json"):
                code, out, _ = run_cli(capsys, "subsystem", "--config", cfg, "--format", fmt)
                assert code == 0
                outs.append(out)
        assert outs[:2] == outs[2:]

    def test_bad_selector_kind(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema_version": 1, "subsystem": {"kind": "bogus", "m": 1},
        })
        code, _, err = run_cli(capsys, "subsystem", "--config", cfg)
        assert code == 2


class TestLimitCommand:
    def test_gibbs_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "model": {"E": 1.0, "eps": 1.0, "eta": 1.0, "tau": 0.1, "N": 10},
            "limit": {"checkpoints": [100, 1000],
                      "spec": {"kind": "gibbs", "beta": 0.6931471805599453}},
        })
        code, out, _ = run_cli(capsys, "limit", "--config", cfg)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert {"N", "tau", "tau_sq_N", "tau_cub_N", "value_re", "value_im",
                "limit", "abs_error", "predicted_error", "law_remainder",
                "monotone_ok"} <= set(header)
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert float(rows[1]["abs_error"]) < float(rows[0]["abs_error"])

    def test_invalid_schedule_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema_version": 1, "limit": {"exponent": 0.5},
        })
        code, _, err = run_cli(capsys, "limit", "--config", cfg)
        assert code == 2
        assert "schedule" in err

    def test_evaluation_cutoff_past_its_bound_exits_2(self, tmp_path, capsys):
        # theta = 100 on |1> would take a dense density of 80,003 levels (95 GiB)
        cfg = write_config(tmp_path, {"schema_version": 1, "limit": {
            "spec": {"kind": "number_state", "level": 1}, "multiplier": 0.01,
            "thetas": [[100, 0]], "checkpoints": [100, 1000]}})
        code, out, err = run_cli(capsys, "limit", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err == "error: evaluation cutoff 80003 for max|theta| = 100.0 is above 4096\n"

    def test_custom_spec_not_configurable(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema_version": 1, "limit": {"spec": {"kind": "custom"}},
        })
        code, _, err = run_cli(capsys, "limit", "--config", cfg)
        assert code == 2


class TestSweepCommand:
    def sweep_config(self, tmp_path):
        return write_config(tmp_path, {
            "schema_version": 1,
            "sweep": {
                "grid": {
                    "E": [1.0, 2.0], "eps": [1.0], "eta": [0.5, 9.0], "tau": [1.0],
                    "beta0": ["inf", math.log(3)], "beta": [math.log(2)], "N": [2],
                },
            },
        })

    def test_grid_with_errors_and_inf(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--config", self.sweep_config(tmp_path))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9  # header + 2*2*2 points
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert sum(1 for r in rows if r.get("error")) == 4  # eta = 9 points
        inf_rows = [r for r in rows if r["beta0"] == "inf"]
        assert len(inf_rows) == 4
        good = [r for r in rows if not r.get("error") and r["beta0"] == "inf"]
        assert all(r["relative_entropy_N"] == "nan" for r in good)

    def test_requires_section(self, capsys):
        code, _, err = run_cli(capsys, "sweep")
        assert code == 2
        assert "sweep" in err

    def test_leaves_the_callers_config_unmodified(self, tmp_path):
        config = json.loads(Path(self.sweep_config(tmp_path)).read_text(encoding="utf-8"))
        before = copy.deepcopy(config)
        records = cmd_sweep(config, 8)
        assert config == before
        assert records[0].inputs["beta0"] == math.inf

    def test_output_file_determinism(self, tmp_path, capsys):
        cfg = self.sweep_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--output", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestVerifyCommand:
    def test_report_lines_and_exit(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--cutoff", "10",
                               "--tolerance", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_zero_tolerance_fails(self, capsys, tmp_path):
        out_path = tmp_path / "verify.csv"
        code, out, _ = run_cli(capsys, "verify", "--cutoff", "10",
                               "--tolerance", "0", "--output", str(out_path))
        assert code == 1
        assert "FAIL" in out
        header = out_path.read_text(encoding="utf-8").splitlines()[0].split(",")
        assert {"check", "deviation", "tolerance", "passed"} <= set(header)

    def test_json_output_parses(self, tmp_path, capsys):
        # window_norm_embedding's deviation is a numpy float
        out_path = tmp_path / "verify.json"
        code, _, _ = run_cli(capsys, "verify", "--cutoff", "8", "--tolerance", "1",
                             "--format", "json", "--output", str(out_path))
        assert code == 0
        records = json.loads(out_path.read_text(encoding="utf-8"))["records"]
        assert [r["outputs"]["passed"] for r in records] == [True] * len(records)

    def test_csv_passed_cells_are_lowercase(self, tmp_path, capsys):
        out_path = tmp_path / "verify.csv"
        run_cli(capsys, "verify", "--cutoff", "8", "--output", str(out_path))
        rows = list(csv.DictReader(out_path.read_text(encoding="utf-8").splitlines()))
        assert len(rows) == 13
        assert {row["passed"] for row in rows} <= {"true", "false"}

    def test_limit_law_fails_off_its_law(self, capsys, monkeypatch):
        # a symmetric moment 1e-6 off takes the |1> run off its error law, which
        # the run raises and the check reports as an infinite deviation
        from richain.experiments import ChainStateSpec

        exact = ChainStateSpec.symmetric_moment
        monkeypatch.setattr(ChainStateSpec, "symmetric_moment",
                            lambda self: exact(self) * (1 + 1e-6))
        code, out, _ = run_cli(capsys, "verify", "--cutoff", "8")
        assert code == 1
        assert "\nFAIL limit_law: deviation inf tolerance" in out

    def test_checks_are_the_records_written(self):
        # one record per check, formed where its values are known, with one
        # model echo for the run; --tolerance re-forms them with its tolerance
        params = _model_from_config({})
        code, report, records = cmd_verify({}, params, None, 6)
        assert [r.run_id for r in records] == [f"verify-{i:04d}" for i in range(13)]
        assert all(r.inputs is records[0].inputs for r in records)
        for r in records:
            assert list(r.outputs) == ["check", "deviation", "tolerance", "passed"]
            assert type(r.outputs["deviation"]) is float
            assert r.outputs["passed"] is (r.outputs["deviation"] <= r.outputs["tolerance"])
        assert report.splitlines()[:-1] == [
            f"{'PASS' if r.outputs['passed'] else 'FAIL'} {r.outputs['check']}: deviation "
            f"{r.outputs['deviation']:.6e} tolerance {r.outputs['tolerance']:.6e}" for r in records]
        _, loose, relaxed = cmd_verify({}, params, 0.5, 6)
        assert [r.outputs["tolerance"] for r in relaxed] == [0.5] * 13
        assert [r.outputs["deviation"] for r in relaxed] == [r.outputs["deviation"] for r in records]
        assert loose.endswith("13/13 checks passed\n")

    @pytest.mark.parametrize("model, fails", [({"N": 1}, set()),
                                              ({"beta": 800}, {"oracle_relative_entropy"})],
                             ids=["one-mode-chain", "cold-chain"])
    def test_valid_edge_models_get_a_report(self, tmp_path, capsys, model, fails):
        # N = 1 takes S + S_1 for the marginals.  At beta = 800 exp(-800 k)
        # underflows in the product reference, but its exact log weights keep
        # the oracle's relative entropy finite: at cutoff 8 it fails from
        # truncation alone.  The production limit there is about 400, and the
        # tail check's gate scales with it
        cfg = write_config(tmp_path, {"schema_version": 1, "model": model})
        code, out, err = run_cli(capsys, "verify", "--cutoff", "8", "--config", cfg)
        assert code in (0, 1) and err == ""
        lines = out.splitlines()
        assert len(lines) == 14 and lines[-1].endswith("checks passed")
        assert "PASS marginalization_consistency:" in out
        assert "PASS entropy_production_tail:" in out
        assert "deviation inf" not in out
        for name in fails:
            assert f"FAIL {name}: deviation " in out

    @pytest.mark.parametrize("model", [{}, {"N": 1}, {"beta": 800}, {"beta": 1e-12}, {"beta0": 1e-6}],
                             ids=["default", "one-mode-chain", "cold-chain", "hot-chain", "hot-S"])
    def test_closed_form_checks_read_rounding(self, model):
        # the four read the explicit step products alone.  At beta = 1e-12,
        # n(beta) is about 1e12, whose ulp (about 1e-4) effective_beta_affine's
        # gate scales with; an absolute 1e-12 failed it from rounding alone
        from richain.quasifree import occupation

        params = _model_from_config({"model": model})
        scale = max(1.0, occupation(params.beta0), occupation(params.beta))
        records = {r.outputs["check"]: r.outputs for r in run_verification(params, cutoff=8)}
        assert records["effective_beta_affine"]["tolerance"] == 1e-12 * scale
        for name, bound in (("propagation_vs_matrix_product", 1e-13), ("quasifree_composition", 1e-13),
                            ("effective_beta_affine", 1e-13 * scale), ("window_norm_embedding", 1e-13)):
            assert records[name]["passed"]
            assert records[name]["deviation"] <= bound, name

    def test_short_time_run_failure_reads_inf(self, capsys, monkeypatch):
        import richain.cli as cli

        run = cli.short_time_limit_run

        def gibbs_fails(params, schedule, spec, thetas):
            if spec.kind == "gibbs":
                raise RuntimeError("limit-run error sequence not monotone")
            return run(params, schedule, spec, thetas)

        monkeypatch.setattr(cli, "short_time_limit_run", gibbs_fails)
        code, out, _ = run_cli(capsys, "verify", "--cutoff", "8")
        assert code == 1
        assert "\nFAIL short_time_error_decreasing: deviation inf tolerance" in out
        assert "\nPASS limit_law:" in out

    @pytest.mark.parametrize("argv", [["verify"], ["simulate", "--oracle"],
                                      ["sweep", "--oracle"]], ids=["verify", "simulate", "sweep"])
    def test_oracle_past_its_size_bound_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        from richain import fock_oracle

        monkeypatch.setattr(fock_oracle, "_STEP_BYTES_CAP", 100_000)
        grid = {"E": [2.0], "eps": [1.0], "eta": [0.5], "tau": [1.0],
                "beta0": [1.0], "beta": [1.5], "N": [2]}
        cfg = write_config(tmp_path, {"schema_version": 1, "model": {"N": 2},
                                      "sweep": {"grid": grid}})
        out_path = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, *argv, "--cutoff", "8", "--config", cfg,
                                 "--output", str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        assert "error: oracle cutoff 8 is too large for 3 modes" in err

    def test_unstable_config_rejected_before_suites(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema_version": 1, "model": {"eta": 9.0},
        })
        code, out, err = run_cli(capsys, "verify", "--config", cfg)
        assert code == 2
        assert out == ""  # no check ever ran
        assert "unstable" in err


class TestFlags:
    """--oracle, --cutoff and --tolerance exist only where they are read."""

    @pytest.mark.parametrize("argv", [
        ["kernel", "--oracle"], ["kernel", "--cutoff", "8"], ["kernel", "--tolerance", "0"],
        ["subsystem", "--oracle"], ["subsystem", "--cutoff", "8"],
        ["subsystem", "--tolerance", "0"], ["limit", "--oracle"], ["limit", "--tolerance", "0"],
        ["simulate", "--tolerance", "0"], ["sweep", "--tolerance", "0"], ["verify", "--oracle"],
        ["limit", "--cutoff", "8"],
    ])
    def test_unread_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_read_flags_parse(self):
        parser = _build_parser()
        for argv in (["simulate", "--oracle", "--cutoff", "8"],
                     ["sweep", "--oracle", "--cutoff", "8"],
                     ["verify", "--cutoff", "8", "--tolerance", "0.5"]):
            parser.parse_args(argv)

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_cutoff_needs_oracle(self, command, capsys):
        code, out, err = run_cli(capsys, command, "--cutoff", "8")
        assert code == 2
        assert out == ""
        assert "--oracle" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("argv", [["simulate", "--oracle"], ["sweep", "--oracle"], ["verify"]],
                             ids=["simulate", "sweep", "verify"])
    def test_cutoff_below_2_exits_2(self, argv, value, capsys):
        code, out, err = run_cli(capsys, *argv, "--cutoff", value)
        assert code == 2
        assert out == ""
        assert f"--cutoff must be at least 2, got {value}" in err

    def test_benchmark_argvs_parse(self):
        workloads = json.loads((REPO / "bench" / "workloads.json").read_text(encoding="utf-8"))
        parser = _build_parser()
        for spec in workloads.values():
            for argv in (spec["argv"], spec["tiny"]["argv"]):
                parser.parse_args(argv)


class TestConfigErrors:
    def test_not_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        code, _, err = run_cli(capsys, "kernel", "--config", str(path))
        assert code == 2
        assert "JSON" in err

    def test_wrong_schema_version(self, tmp_path, capsys):
        for version in (2, True):  # true is no number, so not 1
            cfg = write_config(tmp_path, {"schema_version": version})
            code, _, err = run_cli(capsys, "kernel", "--config", cfg)
            assert code == 2
            assert "schema_version" in err

    def test_unknown_model_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 1, "model": {"mass": 1.0}})
        code, _, err = run_cli(capsys, "kernel", "--config", cfg)
        assert code == 2
        assert "mass" in err

    def test_bad_beta_string(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 1, "model": {"beta": "cold"}})
        code, _, err = run_cli(capsys, "kernel", "--config", cfg)
        assert code == 2

    def test_malformed_complex_pair(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "limit": {"thetas": [[1.0, 0.0, 3.0]], "checkpoints": [100, 1000]},
        })
        code, _, err = run_cli(capsys, "limit", "--config", cfg)
        assert code == 2
        assert "re, im" in err

    @pytest.mark.parametrize("command, payload, key", [
        ("sweep", {"sweep": {"grid": {}, "oracle": True}}, "oracle"),
        ("sweep", {"sweep": {"grid": {}, "cutoff": 8}}, "cutoff"),
        ("sweep", {"sweep": {"grid": {}, "zeta_samples": 3}}, "zeta_samples"),
        ("verify", {"verify": {"tolerance": 1.0}}, "tolerance"),
        ("sweep", {"sweep": {"grid": {}, "orcale": True}}, "orcale"),
        ("simulate", {"simulate": {"alpha": [0.5, 0.0]}}, "alpha"),
        ("subsystem", {"subsystem": {"kind": "S", "alpha": [0.5, 0.0]}}, "alpha"),
        ("limit", {"limit": {"theta": [[1.0, 0.0]]}}, "theta"),
        ("kernel", {"kernel": {}}, "kernel"),
        ("kernel", {"modle": {"N": 2}}, "modle"),
        ("limit", {"limit": {"spec": {"kind": "number_state", "levle": 2}}}, "levle"),
        ("limit", {"limit": {"spec": {"kind": "gibbs", "level": 1}}}, "level"),
        # values of the wrong JSON type
        ("verify", {"verify": {"seed": [1]}}, "verify.seed"),
        ("simulate", {"model": {"N": 2}, "simulate": {"seed": [1]}}, "simulate.seed"),
        ("subsystem", {"subsystem": {"m": [1]}}, "subsystem.m"),
        ("subsystem", {"subsystem": {"kind": "window", "n": [1]}}, "subsystem.n"),
        ("limit", {"limit": {"exponent": [0.4]}}, "limit.exponent"),
        ("limit", {"limit": {"checkpoints": 5}}, "limit.checkpoints"),
        ("limit", {"limit": {"thetas": 5}}, "limit.thetas"),
        ("limit", {"limit": {"spec": {"kind": "number_state", "level": [1]}}},
         "limit.spec.level"),
        ("sweep", {"sweep": {"grid": {"E": [2.0], "eps": [1.0], "eta": [0.5], "tau": [1.0],
                                      "beta0": [1.0], "beta": [1.5], "N": [[2]]}}},
         "sweep.grid.N[0]"),
        # integer keys take whole numbers only, and no key takes a bool
        ("kernel", {"model": {"N": 3.9}}, "model.N"),
        ("kernel", {"model": {"N": True}}, "model.N"),
        ("kernel", {"model": {"E": True}}, "model.E"),
        ("kernel", {"model": {"beta": False}}, "model.beta"),
        ("sweep", {"sweep": {"grid": {"E": [2.0], "eps": [1.0], "eta": [0.5], "tau": [1.0],
                                      "beta0": [1.0], "beta": [1.5], "N": [2.5, True]}}},
         "sweep.grid.N[0]"),
        ("sweep", {"sweep": {"grid": {"E": [2.0], "eps": [1.0], "eta": [0.5], "tau": [1.0],
                                      "beta0": [1.0], "beta": [1.5], "N": [2, True]}}},
         "sweep.grid.N[1]"),
        ("limit", {"limit": {"checkpoints": [100.9, 1000.2]}}, "limit.checkpoints[0]"),
        ("limit", {"limit": {"spec": {"kind": "number_state", "level": 1.7}}},
         "limit.spec.level"),
        ("subsystem", {"subsystem": {"m": 8.5}}, "subsystem.m"),
        ("subsystem", {"subsystem": {"kind": "window", "n": 1e999}}, "subsystem.n"),
        ("verify", {"verify": {"seed": 0.5}}, "verify.seed"),
        ("sweep", {"sweep": {"grid": {}, "seed": False}}, "sweep.seed"),
        ("simulate", {"model": {"N": 2}, "simulate": {"seed": True}}, "simulate.seed"),
        # float keys take numbers, not strings, and a theta must be finite
        ("kernel", {"model": {"E": "2.0"}}, "model.E"),
        ("kernel", {"model": {"tau": "1.0"}}, "model.tau"),
        ("limit", {"limit": {"exponent": "0.4"}}, "limit.exponent"),
        ("limit", {"limit": {"multiplier": "2.0"}}, "limit.multiplier"),
        ("sweep", {"sweep": {"grid": {"E": ["2.0"], "eps": [1.0], "eta": [0.5], "tau": [1.0],
                                      "beta0": [1.0], "beta": [1.5], "N": [2]}}},
         "sweep.grid.E[0]"),
        ("limit", {"limit": {"thetas": [[1e999, 0.0]]}}, "limit.thetas[0]"),
        ("limit", {"limit": {"thetas": [[1.0, 0.0], [0.0, -1e999]]}}, "limit.thetas[1]"),
        ("limit", {"limit": {"thetas": [[10**400, 0.0]]}}, "limit.thetas[0]"),
        # a beta is a number or "inf", wherever it is read
        ("limit", {"limit": {"spec": {"kind": "gibbs", "beta": True}}}, "limit.spec.beta"),
        ("limit", {"limit": {"spec": {"kind": "gibbs", "beta": [1]}}}, "limit.spec.beta"),
        ("limit", {"limit": {"spec": {"kind": "gibbs", "beta": None}}}, "limit.spec.beta"),
        ("kernel", {"model": {"beta": "cold"}}, "model.beta"),
        ("sweep", {"sweep": {"grid": {"E": [2.0], "eps": [1.0], "eta": [0.5], "tau": [1.0],
                                      "beta0": [1.0], "beta": ["cold"], "N": [2]}}},
         "sweep.grid.beta[0]"),
        # an integer past the floats is no number
        ("kernel", {"model": {"E": 10**400}}, "model.E"),
        ("sweep", {"sweep": {"grid": {"E": [10**400, 1.0], "eps": [1.0], "eta": [0.5], "tau": [1.0],
                                      "beta0": [1.0], "beta": [1.5], "N": [2]}}},
         "sweep.grid.E[0]"),
    ])
    def test_unread_key_exits_2_and_names_it(self, tmp_path, capsys, command, payload, key):
        cfg = write_config(tmp_path, {"schema_version": 1, **payload})
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert code == 2
        assert out == ""
        assert f"'{key}'" in err

    @pytest.mark.parametrize("key", ["E", "eps", "eta", "tau"])
    def test_non_finite_model_value_names_it(self, tmp_path, capsys, key):
        # tau = 1e999 used to exit with the bare "math domain error"
        cfg = write_config(tmp_path, {"schema_version": 1, "model": {key: 1e999}})
        code, out, err = run_cli(capsys, "kernel", "--config", cfg)
        assert code == 2
        assert out == ""
        assert f"{key} must be finite" in err

    def test_whole_floats_still_read_as_integers(self, tmp_path, capsys):
        outs = []
        for version, n in ((1, 3), (1, 3.0), (1.0, 3)):
            cfg = write_config(tmp_path, {"schema_version": version, "model": {"N": n}})
            code, out, _ = run_cli(capsys, "kernel", "--config", cfg)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    def test_bool_in_complex_pair(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 1, "model": {"N": 2},
                                      "simulate": {"alpha_sample": [True, 0.0]}})
        code, _, err = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert "re, im" in err

    @pytest.mark.parametrize("command, payload, message", [
        ("kernel", {"schema_version": 1, "model": [2.0]}, '"model" section must be an object'),
        ("kernel", [{"schema_version": 1}], "config must be a JSON object"),
        ("subsystem", {"schema_version": 1, "subsystem": {"alphas": []}},
         "subsystem.alphas must be a nonempty list of argument tuples"),
        ("limit", {"schema_version": 1, "limit": {"spec": "gibbs"}},
         'limit.spec must be an object with a "kind"'),
        ("limit", {"schema_version": 1, "limit": {"spec": {"kind": "laser"}}},
         "unknown chain-state kind 'laser'"),
        ("limit", {"schema_version": 1, "limit": {"spec": {"kind": "number_state", "level": -1}}},
         "invalid chain-state spec: number_state spec needs level >= 0, got -1"),
    ], ids=["section-not-object", "config-array", "alphas-empty", "spec-not-object",
            "spec-unknown-kind", "spec-negative-level"])
    def test_malformed_config_exits_2_with_its_message(self, tmp_path, capsys, command, payload,
                                                       message):
        cfg = write_config(tmp_path, payload)
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "kernel", "--config", "/nonexistent/x.json")
        assert code == 2

    @pytest.mark.parametrize("command, payload", [
        ("subsystem", {"subsystem": {"alphas": [1.0]}}),
        ("subsystem", {"subsystem": {"alphas": [None]}}),
        ("limit", {"limit": {"thetas": []}}),
        ("limit", {"limit": {"thetas": [[1e300, 0.0]]}}),
        ("limit", {"limit": {"spec": {"kind": "number_state", "level": 1},
                             "thetas": [[1e300, 0.0]]}}),
    ], ids=["alphas-float", "alphas-null", "thetas-empty", "thetas-1e300-gibbs",
            "thetas-1e300-number-state"])
    def test_bad_pair_list_exits_2_with_one_error_line(self, tmp_path, capsys, command, payload):
        # a list entry that is not a list, no theta, or a |theta|^2 past the floats:
        # one error line naming the list, never a traceback
        cfg = write_config(tmp_path, {"schema_version": 1, **payload})
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert ("alphas" if command == "subsystem" else "thetas") in err

    @pytest.mark.parametrize("argv", [["kernel"], ["verify", "--cutoff", "8"]],
                             ids=["kernel", "verify"])
    def test_output_that_cannot_be_opened_exits_2(self, tmp_path, capsys, argv):
        target = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert code == 2
        assert err == f"error: cannot write output: [Errno 2] No such file or directory: '{target}'\n"
        assert not target.parent.exists()
        # verify's report still goes to stdout, before its records are written
        assert (out == "") == (argv[0] == "kernel")
        if argv[0] == "verify":
            assert out.endswith("13 checks passed\n")

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2


_NO_SCIPY_LIMIT = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from richain.cli import main

code = main(["limit", "--config", sys.argv[1]])
assert "scipy" not in sys.modules, "scipy was imported"
sys.exit(code)
"""


def test_limit_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: block it outright and run the limit
    # workload's small config in a fresh interpreter
    cfg = write_config(tmp_path, {
        "schema_version": 1,
        "limit": {"spec": {"kind": "number_state", "level": 1},
                  "thetas": [[1.0, 0.0]], "checkpoints": [100, 1000]},
    })
    src = str(Path(richain.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _NO_SCIPY_LIMIT, cfg],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 3 and lines[0].startswith("run_id,")


@pytest.mark.skipif(shutil.which("richain") is None,
                    reason="console script not on PATH")
def test_console_script():
    result = subprocess.run(["richain", "kernel"], capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.startswith("run_id,")
