import copy
import functools
import hashlib
import json
import math
import operator
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import vmfcorr
from vmfcorr import scf, scf_multicluster, VmfCluster
from vmfcorr.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    MODES,
    ConfigError,
    SweepConfig,
    _ROWS_PER_WRITE,
    _complex_columns,
    _distinct,
    _is_number,
    _write_output,
    main,
    output_path,
    parse_config,
    run,
)


def curve_config(**overrides):
    doc = {
        "mode": "scf-curve",
        "wavelength": 1.0,
        "cluster": {"kappa": 10.0},
        "beta_deg": 0.0,
        "d_over_lambda": {"start": 0.0, "stop": 3.0, "count": 13},
    }
    doc.update(overrides)
    return doc


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_defaults_filled(self):
        config = parse_config(json.dumps(curve_config()))
        assert config.format == "csv"
        assert config.out is None
        assert config.args["clusters"][0].power == 1.0

    def test_negative_kappa_names_field(self):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(curve_config(cluster={"kappa": -1.0})))
        assert any("kappa" in message for message in info.value.errors)

    def test_multiple_modes_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({"mode": ["scf-curve", "acf-curve"]}))
        assert any("mode" in message for message in info.value.errors)

    def test_mode_mismatch(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps(curve_config()), mode="acf-curve")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(curve_config(bogus=1)))
        assert any("bogus" in message for message in info.value.errors)

    def test_parse_error_reports_position(self):
        with pytest.raises(ConfigError) as info:
            parse_config("{not valid json")
        assert any("line 1" in message for message in info.value.errors)

    def test_all_violations_collected(self):
        doc = curve_config(cluster={"kappa": -1.0}, wavelength=-2.0)
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert len(info.value.errors) >= 2

    def test_direction_required_for_multicluster(self):
        doc = curve_config()
        del doc["cluster"]
        del doc["beta_deg"]
        doc["clusters"] = [
            {"kappa": 5.0, "power": 0.5},
            {"kappa": 1.0, "mu_phi_deg": 90.0, "power": 0.5},
        ]
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert any("direction" in message for message in info.value.errors)
        doc["direction"] = {"phi_deg": 30.0, "psi_deg": 0.0}
        config = parse_config(json.dumps(doc))
        assert len(config.args["clusters"]) == 2

    def test_cluster_powers_must_sum_to_one(self):
        doc = curve_config()
        del doc["cluster"]
        del doc["beta_deg"]
        doc["clusters"] = [
            {"kappa": 5.0, "power": 0.5},
            {"kappa": 1.0, "power": 0.4},
        ]
        doc["direction"] = {"phi_deg": 0.0}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert any("sum to 1" in message for message in info.value.errors)


def _cluster_block(**overrides):
    block = {"kappa": 5.0, "mu_phi_deg": 30.0, "mu_psi_deg": -10.0, "power": 1.0}
    block.update(overrides)
    return block


def _grid(start=0.0, stop=1.0, count=3):
    return {"start": start, "stop": stop, "count": count}


_PAIR = [_cluster_block(power=0.25), _cluster_block(kappa=1.0, mu_phi_deg=120.0, power=0.75)]
_COMMON = {"out": "unused.csv", "format": "json"}

# Between them, the configs of each mode use every key the mode accepts, at
# every nesting level.
FULL_CONFIGS = {
    "scf-curve/sweep": {
        "mode": "scf-curve", **_COMMON, "wavelength": 0.5,
        "cluster": {k: v for k, v in _cluster_block().items() if k != "kappa"},
        "kappas": [0.0, 10.0], "betas_deg": [0.0, 45.0], "d_over_lambda": _grid(),
    },
    "scf-curve/beta": {
        "mode": "scf-curve", **_COMMON, "wavelength": 0.5, "cluster": _cluster_block(),
        "beta_deg": 30.0, "d_over_lambda": _grid(),
    },
    "scf-curve/direction": {
        "mode": "scf-curve", **_COMMON, "wavelength": 0.5, "clusters": _PAIR,
        "direction": {"phi_deg": 10.0, "psi_deg": 20.0}, "d_over_lambda": _grid(),
    },
    "scf-field": {
        "mode": "scf-field", **_COMMON, "wavelength": 0.5, "clusters": _PAIR,
        "x_over_lambda": _grid(-1.0), "y_over_lambda": _grid(-2.0),
    },
    "acf-curve/carrier": {
        "mode": "acf-curve", **_COMMON, "carrier_frequency_hz": 2.4e9,
        "cluster": _cluster_block(), "monostatic": True, "dt_s": _grid(0.0, 0.01),
        "motion": {"speed_mps": 20.0, "phi_v_deg": 15.0, "psi_v_deg": 5.0},
    },
    "acf-curve/wavelength": {
        "mode": "acf-curve", **_COMMON, "wavelength": 0.1, "clusters": _PAIR,
        "dt_s": _grid(0.0, 0.01), "motion": {"speed_mps": 20.0},
    },
    "array-matrix/linear": {
        "mode": "array-matrix", **_COMMON, "wavelength": 0.1, "cluster": _cluster_block(),
        "geometry": {"kind": "linear", "n": 3, "spacing_over_lambda": 0.5,
                     "axis_phi_deg": 20.0, "axis_psi_deg": 10.0},
    },
    "array-matrix/circular": {
        "mode": "array-matrix", **_COMMON, "wavelength": 0.1, "clusters": _PAIR,
        "geometry": {"kind": "circular", "n": 5, "radius_over_lambda": 1.5},
    },
    "array-matrix/planar": {
        "mode": "array-matrix", **_COMMON, "wavelength": 0.1, "cluster": _cluster_block(),
        "geometry": {"kind": "planar", "nx": 2, "ny": 3,
                     "dx_over_lambda": 0.5, "dy_over_lambda": 0.25},
    },
    "array-path/linear": {
        "mode": "array-path", **_COMMON, "wavelength": 0.1, "clusters": _PAIR,
        "geometry": {"kind": "linear", "n": 5, "spacing_over_lambda": 0.5,
                     "axis_phi_deg": 20.0, "axis_psi_deg": 10.0},
    },
    "array-path/circular": {
        "mode": "array-path", **_COMMON, "wavelength": 0.1, "cluster": _cluster_block(),
        "geometry": {"kind": "circular", "n": 5, "radius_over_lambda": 1.5},
    },
    "radar-table": {
        "mode": "radar-table", **_COMMON, "carrier_frequency_hz": 1e10, "elevation_deg": 20.0,
        "widths_deg": [2.0, 1.0], "speeds_kmh": [150.0], "motion_azimuth_deg": 10.0,
        "monostatic": False, "threshold": 0.4,
    },
    "validate": {
        "mode": "validate", **_COMMON, "wavelength": 0.5,
        "cluster": {"mu_phi_deg": 30.0, "mu_psi_deg": -10.0},
        "kappas": [0.0, 10.0], "betas_deg": [0.0, 90.0], "d_over_lambda": _grid(),
        "tolerance": 1e-6, "quad_abs_tol": 1e-9, "quad_rel_tol": 1e-9,
    },
}


def _blocks(doc, label="config"):
    """(label, object) for the config root and every object nested in it."""
    yield label, doc
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _blocks(value, key)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    yield from _blocks(item, f"{key}[{i}]")


class TestConfigSchema:
    @pytest.mark.parametrize("name", FULL_CONFIGS)
    def test_every_accepted_key_parses(self, name):
        doc = FULL_CONFIGS[name]
        config = parse_config(json.dumps(doc))
        assert config.mode == doc["mode"]
        assert (config.out, config.format) == ("unused.csv", "json")

    @pytest.mark.parametrize("name, label", [
        (name, label) for name, doc in FULL_CONFIGS.items() for label, _ in _blocks(doc)
    ])
    def test_bogus_key_rejected_in_its_block(self, name, label):
        doc = json.loads(json.dumps(FULL_CONFIGS[name]))
        dict(_blocks(doc))[label]["bogus"] = 1
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert info.value.errors == [f"{label}: unknown key 'bogus'"]


README = (Path(__file__).parents[1] / "README.md").read_text()
# Every ```json block of the README is a complete config, so the docs cannot
# drift from the schema.
README_CONFIGS = re.findall(r"^```json\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("text", README_CONFIGS, ids=lambda text: json.loads(text)["mode"])
def test_readme_config_runs(tmp_path, text):
    config = parse_config(text)
    assert run(replace(config, out=str(tmp_path / output_path(config)))) == EXIT_OK
    assert (tmp_path / output_path(config)).stat().st_size > 0


def test_readme_python_examples_run():
    # every ```python block of the README runs as written, on a fresh namespace
    examples = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
    assert examples
    for code in examples:
        exec(compile(code, "README.md", "exec"), {})


class TestRunModes:
    def test_scf_curve_kappa_sweep_zeros(self, tmp_path):
        doc = {
            "mode": "scf-curve",
            "wavelength": 1.0,
            "cluster": {"mu_phi_deg": 0.0, "mu_psi_deg": 0.0},
            "kappas": [0.0, 1.0, 10.0, 100.0],
            "betas_deg": [0.0],
            "d_over_lambda": {"start": 0.0, "stop": 3.0, "count": 13},
            "out": str(tmp_path / "fig1a.csv"),
        }
        assert run(parse_config(json.dumps(doc))) == EXIT_OK
        lines = (tmp_path / "fig1a.csv").read_text().splitlines()
        assert lines[0] == "kappa,beta_deg,d_over_lambda,re,im,abs"
        for line in lines[1:]:
            kappa, _, frac, _, _, magnitude = line.split(",")
            if float(kappa) == 0.0 and float(frac) in (0.5, 1.0, 1.5, 2.0):
                assert float(magnitude) < 1e-12

    def test_scf_curve_direction_header(self, tmp_path):
        doc = curve_config(out=str(tmp_path / "c.csv"))
        del doc["beta_deg"]
        doc["direction"] = {"phi_deg": 0.0, "psi_deg": 0.0}
        assert run(parse_config(json.dumps(doc))) == EXIT_OK
        header = (tmp_path / "c.csv").read_text().splitlines()[0]
        assert header == "d_over_lambda,re,im,abs"

    def test_scf_field_radial_symmetry_when_isotropic(self, tmp_path):
        doc = {
            "mode": "scf-field",
            "wavelength": 1.0,
            "cluster": {"kappa": 0.0},
            "x_over_lambda": {"start": -1.0, "stop": 1.0, "count": 5},
            "y_over_lambda": {"start": -1.0, "stop": 1.0, "count": 5},
            "out": str(tmp_path / "field.csv"),
        }
        assert run(parse_config(json.dumps(doc))) == EXIT_OK
        rows = (tmp_path / "field.csv").read_text().splitlines()[1:]
        assert len(rows) == 25
        values = {}
        for row in rows:
            x, y, _, _, magnitude = map(float, row.split(","))
            values.setdefault(round(math.hypot(x, y), 12), set()).add(round(magnitude, 12))
        assert all(len(group) == 1 for group in values.values())

    def test_acf_curve_matches_library(self, tmp_path):
        doc = {
            "mode": "acf-curve",
            "carrier_frequency_hz": 3e9,
            "cluster": {"kappa": 8.0, "mu_phi_deg": 10.0},
            "motion": {"speed_mps": 20.0, "phi_v_deg": 10.0},
            "monostatic": True,
            "dt_s": {"start": 0.0, "stop": 0.01, "count": 6},
            "out": str(tmp_path / "acf.csv"),
        }
        config = parse_config(json.dumps(doc))
        assert run(config) == EXIT_OK
        lam = 299_792_458.0 / 3e9
        rows = (tmp_path / "acf.csv").read_text().splitlines()[1:]
        cluster = VmfCluster(math.radians(10.0), 0.0, 8.0)
        velocity = 20.0 * np.array([math.cos(math.radians(10.0)), math.sin(math.radians(10.0)), 0.0])
        for row in rows:
            dt, re, im, _ = map(float, row.split(","))
            expected = scf(cluster, 2.0 * dt * velocity, lam)
            assert complex(re, im) == pytest.approx(expected, abs=1e-12)

    def test_array_matrix_output(self, tmp_path):
        doc = {
            "mode": "array-matrix",
            "wavelength": 0.1,
            "cluster": {"kappa": 0.0},
            "geometry": {"kind": "linear", "n": 2, "spacing_over_lambda": 0.5},
            "out": str(tmp_path / "matrix.csv"),
        }
        assert run(parse_config(json.dumps(doc))) == EXIT_OK
        rows = (tmp_path / "matrix.csv").read_text().splitlines()
        assert rows[0] == "row,col,re,im"
        entries = {tuple(map(float, r.split(",")[:2])): r.split(",")[2:] for r in rows[1:]}
        assert float(entries[(0.0, 0.0)][0]) == 1.0
        assert abs(float(entries[(0.0, 1.0)][0])) < 1e-14

    def test_array_path_circular(self, tmp_path):
        doc = {
            "mode": "array-path",
            "wavelength": 1.0,
            "cluster": {"kappa": 10.0, "mu_phi_deg": 45.0},
            "geometry": {"kind": "circular", "n": 21, "radius_over_lambda": 0.9549},
            "out": str(tmp_path / "path.csv"),
        }
        assert run(parse_config(json.dumps(doc))) == EXIT_OK
        rows = (tmp_path / "path.csv").read_text().splitlines()[1:]
        coords = [float(r.split(",")[0]) for r in rows]
        assert min(coords) < 0.0 < max(coords)

    def test_array_path_rejects_planar(self):
        doc = {
            "mode": "array-path",
            "wavelength": 1.0,
            "cluster": {"kappa": 1.0},
            "geometry": {"kind": "planar", "nx": 2, "ny": 2,
                         "dx_over_lambda": 0.5, "dy_over_lambda": 0.5},
        }
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))

    def test_radar_table(self, tmp_path):
        doc = {
            "mode": "radar-table",
            "carrier_frequency_hz": 1e10,
            "elevation_deg": 20.0,
            "widths_deg": [2.0],
            "speeds_kmh": [150.0],
            "out": str(tmp_path / "radar.csv"),
        }
        assert run(parse_config(json.dumps(doc))) == EXIT_OK
        rows = (tmp_path / "radar.csv").read_text().splitlines()
        assert rows[0] == "width_deg,speed_kmh,decorrelation_time_s"
        _, _, seconds = rows[1].split(",")
        assert abs(float(seconds) - 0.024) / 0.024 < 0.15


class TestDeterminismAndRoundTrip:
    def test_byte_identical_reruns(self, tmp_path):
        doc = curve_config()
        for name in ("first.csv", "second.csv"):
            doc["out"] = str(tmp_path / name)
            assert run(parse_config(json.dumps(doc))) == EXIT_OK
        assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "curve.json"
        doc = curve_config(format="json", out=str(out))
        config = parse_config(json.dumps(doc))
        assert run(config) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["kappa", "beta_deg", "d_over_lambda", "re", "im", "abs"]
        lam = 1.0
        cluster = config.args["clusters"][0]
        for row in payload["rows"]:
            _, _, frac, re, im, _ = row
            expected = scf_multicluster([cluster], (frac * lam, 0.0, 0.0), lam)
            assert complex(re, im) == expected

    def test_csv_and_json_agree_cell_by_cell(self, tmp_path):
        doc = dict(FULL_CONFIGS["array-matrix/planar"], format="csv", out=str(tmp_path / "m.csv"))
        assert run(parse_config(json.dumps(doc))) == EXIT_OK
        doc.update(format="json", out=str(tmp_path / "m.json"))
        assert run(parse_config(json.dumps(doc))) == EXIT_OK
        header, *lines = (tmp_path / "m.csv").read_text().splitlines()
        payload = json.loads((tmp_path / "m.json").read_text())
        assert header.split(",") == payload["columns"] == ["row", "col", "re", "im"]
        assert len(lines) == len(payload["rows"]) == 36
        for line, row in zip(lines, payload["rows"]):
            cells = line.split(",")
            assert [type(v) for v in row] == [int, int, float, float]
            assert cells[:2] == [str(v) for v in row[:2]]
            assert [float(c) for c in cells[2:]] == row[2:]


_ONE = _grid(0.5, 0.5, 1)

# Grids of one point, arrays of one element, a 1 x 1 radar table and a
# one-point validate: each writes exactly one data row.
ONE_ROW_CONFIGS = {
    "scf-curve/sweep": dict(FULL_CONFIGS["scf-curve/sweep"], kappas=[10.0], betas_deg=[45.0],
                            d_over_lambda=_ONE),
    "scf-curve/direction": dict(FULL_CONFIGS["scf-curve/direction"], d_over_lambda=_ONE),
    "scf-field": dict(FULL_CONFIGS["scf-field"], x_over_lambda=_ONE,
                      y_over_lambda=_grid(-0.2, -0.2, 1)),
    "acf-curve": dict(FULL_CONFIGS["acf-curve/carrier"], dt_s=_grid(0.003, 0.003, 1)),
    "array-matrix/linear": dict(FULL_CONFIGS["array-matrix/linear"],
                                geometry={"kind": "linear", "n": 1, "spacing_over_lambda": 0.5}),
    "array-path/circular": dict(FULL_CONFIGS["array-path/circular"],
                                geometry={"kind": "circular", "n": 1, "radius_over_lambda": 1.5}),
    "radar-table": dict(FULL_CONFIGS["radar-table"], widths_deg=[2.0], speeds_kmh=[150.0]),
    "validate": dict(FULL_CONFIGS["validate"], kappas=[10.0], betas_deg=[45.0], d_over_lambda=_ONE),
}

# Every mode that writes a magnitude, with enough points that a magnitude
# rounded other than as abs(complex) shows.
MAGNITUDE_CONFIGS = {
    "scf-curve/sweep": dict(FULL_CONFIGS["scf-curve/sweep"], kappas=[0.0, 1.0, 10.0, 1000.0],
                            betas_deg=[0.0, 45.0, 90.0], d_over_lambda=_grid(0.0, 3.0, 101)),
    "scf-curve/direction": dict(FULL_CONFIGS["scf-curve/direction"],
                                d_over_lambda=_grid(0.0, 3.0, 401)),
    "scf-field": dict(FULL_CONFIGS["scf-field"], x_over_lambda=_grid(-2.0, 2.0, 21),
                      y_over_lambda=_grid(-2.0, 2.0, 21)),
    "acf-curve": dict(FULL_CONFIGS["acf-curve/carrier"], dt_s=_grid(0.0, 0.05, 401)),
    "array-path/linear": dict(FULL_CONFIGS["array-path/linear"],
                              geometry={"kind": "linear", "n": 101, "spacing_over_lambda": 0.5}),
    "array-path/circular": dict(FULL_CONFIGS["array-path/circular"],
                                geometry={"kind": "circular", "n": 101, "radius_over_lambda": 8.0}),
    "validate": dict(FULL_CONFIGS["validate"], d_over_lambda=_grid(0.0, 3.0, 13)),
}


def _write_both(tmp_path, doc):
    """Columns and rows of doc written as JSON, after checking that its CSV
    holds the same cells: ints in index columns, floats elsewhere."""
    for fmt in ("csv", "json"):
        out = str(tmp_path / f"out.{fmt}")
        assert run(parse_config(json.dumps(dict(doc, format=fmt, out=out)))) == EXIT_OK
    header, *lines = (tmp_path / "out.csv").read_text().splitlines()
    payload = json.loads((tmp_path / "out.json").read_text())
    columns, rows = payload["columns"], payload["rows"]
    assert header.split(",") == columns
    assert [line.split(",") for line in lines] == [[repr(v) for v in row] for row in rows]
    kinds = [int if name in ("row", "col") else float for name in columns]
    assert all([type(v) for v in row] == kinds for row in rows)
    return columns, rows


class TestWrittenColumns:
    @pytest.mark.parametrize("name", ONE_ROW_CONFIGS)
    def test_degenerate_sizes_write_one_row(self, tmp_path, name):
        _, rows = _write_both(tmp_path, ONE_ROW_CONFIGS[name])
        assert len(rows) == 1

    @pytest.mark.parametrize("name", MAGNITUDE_CONFIGS)
    def test_magnitude_rounds_as_python_abs(self, tmp_path, name):
        columns, rows = _write_both(tmp_path, MAGNITUDE_CONFIGS[name])
        for row in rows:
            cells = dict(zip(columns, row))
            if "abs" in cells:
                assert cells["abs"] == abs(complex(cells["re"], cells["im"]))
            else:
                closed = complex(cells["closed_re"], cells["closed_im"])
                quad = complex(cells["quad_re"], cells["quad_im"])
                assert cells["abs_error"] == abs(closed - quad)


def _reference_write(config, header, columns):
    """The writer the CLI had before it formatted each distinct cell once:
    repr per cell for CSV, json.dump of the whole table for JSON."""
    rows = zip(*(column.tolist() for column in columns))
    with open(config.out, "w", encoding="utf-8", newline="") as fh:
        if config.format == "csv":
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(map(repr, row)) + "\n")
        else:
            payload = {"mode": config.mode, "columns": list(header), "rows": list(rows)}
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")


# signed zeros, NaNs of either sign, infinities, subnormals down to the
# smallest, the largest double whose repr is still plain, a 17-digit repr
_SPECIAL_CELLS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  1e-310, 2.2250738585072014e-308, 1e16, -1e16, 9999999999999998.0,
                  0.1, 1.0, 0.30000000000000004]
_cells = st.one_of(st.sampled_from(_SPECIAL_CELLS), st.floats())


@st.composite
def _tables(draw):
    """Columns as the row builders hand them over: an int64 index column, a
    float column, and the strided re/im views and magnitude that
    _complex_columns gives, each drawn from a few values so that they repeat."""
    n = draw(st.integers(0, 30))

    def repeated(values):
        pool = draw(st.lists(values, min_size=1, max_size=8))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        return [pool[i] for i in picks]

    index = repeated(st.one_of(st.integers(0, 3), st.integers(-2**63, 2**63 - 1)))
    values = np.empty(n, dtype=complex)
    values.real, values.imag = repeated(_cells), repeated(_cells)
    with np.errstate(over="ignore"):  # huge parts give an infinite magnitude
        complex_columns = _complex_columns(values)
    candidates = [np.array(index, dtype=np.int64), np.array(repeated(_cells)), *complex_columns]
    picks = draw(st.lists(st.integers(0, len(candidates) - 1), min_size=1, max_size=6))
    return [f"c{i}" for i in range(len(picks))], [candidates[i] for i in picks]


def _block_table(n):
    """n rows: an index column and row / 7, which tell every row apart, and
    columns that repeat int64 extremes and the special cells, as plain,
    strided and magnitude columns."""
    rng = np.random.default_rng(n)
    values = np.empty(n, dtype=complex)
    values.real, values.imag = rng.choice(_SPECIAL_CELLS, n), np.resize(_SPECIAL_CELLS, n)
    extremes = np.resize(np.array([0, 3, -2**63, 2**63 - 1], dtype=np.int64), n)
    columns = [np.arange(n), extremes, np.arange(n) / 7, *_complex_columns(values)]
    return [f"c{i}" for i in range(len(columns))], columns


class TestWriterBytes:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(table=_tables())
    @example(table=(["row", "re"], [np.arange(4), np.array([0.0, -0.0, 0.0, -0.0])]))
    @example(table=(["row", "col", "re", "im"],
                    [np.array([3]), np.array([0]), *_complex_columns(np.array([complex(-0.0, -0.0)]))[:2]]))
    # a column's text is respelled only if it holds NaN or an infinity, and
    # only the first column carries an opening: non-finite cells in the first
    # column, which opens JSON's rows with "[", and in the last, which closes
    # them, each beside all-finite float and index columns
    @example(table=(["re", "im", "row"],
                    [np.array([math.nan, -math.nan, math.inf, -math.inf, -0.0]),
                     np.array([0.5, -0.0, 1e300, 5e-324, 0.1]), np.arange(5)]))
    @example(table=(["row", "re", "im"],
                    [np.arange(5), np.array([0.5, -0.0, 1e300, 5e-324, 0.1]),
                     np.array([-0.0, math.inf, -math.nan, -math.inf, math.nan])]))
    def test_matches_reference_writer(self, tmp_path_factory, table):
        header, columns = table
        folder = tmp_path_factory.mktemp("writer")
        for fmt in ("csv", "json"):
            written = {}
            for name, writer in (("new", _write_output), ("reference", _reference_write)):
                config = SweepConfig(mode="scf-field", format=fmt, out=str(folder / f"{name}.{fmt}"))
                writer(config, header, columns)
                written[name] = (folder / f"{name}.{fmt}").read_bytes()
            assert written["new"] == written["reference"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [0, 1, _ROWS_PER_WRITE - 1, _ROWS_PER_WRITE,
                                   _ROWS_PER_WRITE + 1, 2 * _ROWS_PER_WRITE + 1])
    def test_matches_reference_writer_across_write_blocks(self, tmp_path, n, fmt):
        header, columns = _block_table(n)
        written = []
        for writer in (_write_output, _reference_write):
            out = tmp_path / f"{writer.__name__}.{fmt}"
            writer(SweepConfig(mode="scf-field", format=fmt, out=str(out)), header, columns)
            written.append(out.read_bytes())
        assert written[0] == written[1]

    # index columns: empty, one row, negative values with repeats, a range
    # exactly as long as the column, a gap wider than the column, int64
    # extremes (whose range is past int64), and a 91 x 91 matrix's row and
    # col, 8,281 rows across a write block
    INDEX_COLUMNS = {
        "empty": np.zeros(0, dtype=np.int64),
        "one": np.array([7]),
        "negative": np.array([-3, -1, -3, 0, -1, -2]),
        "full-range": np.arange(-5, 5)[::-1],
        "gap": np.array([5, 9, 5, 9]),
        "extremes": np.array([-2**63, 2**63 - 1, 0, -2**63, 2**63 - 1]),
        "matrix-rows": np.indices((91, 91))[0].ravel(),
        "matrix-cols": np.indices((91, 91))[1].ravel(),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(INDEX_COLUMNS))
    def test_index_columns_match_reference_writer(self, tmp_path, name, fmt):
        column = self.INDEX_COLUMNS[name]
        distinct, inverse = _distinct(column)
        expected = np.unique(column, return_inverse=True)
        assert distinct.tolist() == expected[0].tolist()
        assert inverse.tolist() == expected[1].tolist()
        header, columns = ["row", "col", "re"], [column, column[::-1], column / 3.0]
        written = []
        for writer in (_write_output, _reference_write):
            out = tmp_path / f"{writer.__name__}.{fmt}"
            writer(SweepConfig(mode="array-matrix", format=fmt, out=str(out)), header, columns)
            written.append(out.read_bytes())
        assert written[0] == written[1]

    # SHA-256 of the data files as written before the writer formatted each
    # distinct cell once, and before it wrote a block of rows at a time; the
    # 16 x 16 matrix has 65,536 rows, eight write blocks. A change to the
    # formatting, or to any value by one ulp, changes them.
    PINNED = {
        "array-matrix": (
            {"mode": "array-matrix", "wavelength": 1.0,
             "cluster": {"kappa": 5.0, "mu_phi_deg": 30.0, "mu_psi_deg": 10.0},
             "geometry": {"kind": "planar", "nx": 4, "ny": 4,
                          "dx_over_lambda": 0.5, "dy_over_lambda": 0.5}},
            {"csv": "4443e4222e817d4b4c75c1d752f5994223aabb6284fafab8d0dfcde8e7b2a9e5",
             "json": "8632290453fd106d48c08552b87614e13145e95e30054d67e70646b95e1b3c69"}),
        "array-matrix/16x16": (
            {"mode": "array-matrix", "wavelength": 1.0,
             "cluster": {"kappa": 5.0, "mu_phi_deg": 30.0, "mu_psi_deg": 10.0},
             "geometry": {"kind": "planar", "nx": 16, "ny": 16,
                          "dx_over_lambda": 0.5, "dy_over_lambda": 0.5}},
            {"csv": "870a7b90275131449a2bdff7e3db1df9ebab0e8a26349734fb4676262996c2ba",
             "json": "afe9a0733396d6f6a89f48e3477b5f634618cfe8e82eb9e491089f0fd8068e1d"}),
        "scf-field": (
            {"mode": "scf-field", "wavelength": 1.0,
             "clusters": [{"kappa": 4.0, "mu_phi_deg": 20.0, "mu_psi_deg": 10.0, "power": 0.25},
                          {"kappa": 40.0, "mu_phi_deg": 150.0, "power": 0.75}],
             "x_over_lambda": _grid(-1.0, 1.0, 5), "y_over_lambda": _grid(-1.0, 1.0, 5)},
            {"csv": "933f55d344d189ddf2f57bc66667a4fbb6bf1ac96f1b3b6e57a50c7f6e996664",
             "json": "eb91d138c5870a253b507bb38f0c2c7a741063d3d1a14716162c4bafa19dd75d"}),
        # with the quadrature oracle's Gauss-Kronrod constants at full double
        # precision
        "validate": (
            {"mode": "validate"},
            {"csv": "0c4e828789179ee6a6e12b314aeb65bb0e1c32f4c40195ae1fe4b162ec4feba3",
             "json": "630200f7ace019d2244bdb155bfc604de6864845e5de0683493f4b2341db8bde"}),
        "validate/radar-kappas": (
            {"mode": "validate", "kappas": [2e4, 2e5, 1e6], "tolerance": 1e-12},
            {"csv": "b67db2ee088b13f6ffe147ec7e41f8c17d57fbb57916fcb60ecad35ec2f4411c",
             "json": "6420b49e657e07888a974da82095b401f63806cdde70bad23653d6702e62b301"}),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", PINNED)
    def test_pinned_bytes(self, tmp_path, name, fmt):
        doc, digests = self.PINNED[name]
        out = tmp_path / f"out.{fmt}"
        assert run(parse_config(json.dumps(dict(doc, format=fmt, out=str(out))))) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[fmt]


class _FailingWrites:
    """A text file whose nth write raises before anything of it is written."""

    def __init__(self, fh, fail_at):
        self.fh, self.fail_at, self.writes = fh, fail_at, 0

    def write(self, text):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError("write failed")
        return self.fh.write(text)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


class TestRewriteInPlace:
    """An existing data file is rewritten in place and cut to the new length:
    the bytes are those of a fresh write, and the file keeps its inode, its
    mode and any symlink to it."""

    MATRIX = TestWriterBytes.PINNED["array-matrix"][1]  # the 4 x 4 matrix's digests

    @staticmethod
    def _run(name, fmt, out):
        doc = TestWriterBytes.PINNED[name][0]
        assert run(parse_config(json.dumps(dict(doc, format=fmt, out=str(out))))) == EXIT_OK
        return hashlib.sha256(out.read_bytes()).hexdigest()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("old, new", [("array-matrix/16x16", "array-matrix"),
                                          ("array-matrix", "array-matrix/16x16")])
    def test_rewrite_equals_a_fresh_write(self, tmp_path, old, new, fmt):
        # over a longer old file, then over a shorter one
        out = tmp_path / f"out.{fmt}"
        self._run(old, fmt, out)
        assert self._run(new, fmt, out) == TestWriterBytes.PINNED[new][1][fmt]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rewrite_keeps_the_inode_and_mode(self, tmp_path, fmt):
        out = tmp_path / f"out.{fmt}"
        out.write_bytes(b"#" * 100_000)
        out.chmod(0o604)
        before = out.stat()
        assert self._run("array-matrix", fmt, out) == self.MATRIX[fmt]
        after = out.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_symlink_is_written_through(self, tmp_path, fmt):
        target, link = tmp_path / f"target.{fmt}", tmp_path / f"link.{fmt}"
        target.write_bytes(b"#" * 100_000)
        link.symlink_to(target)
        assert self._run("array-matrix", fmt, link) == self.MATRIX[fmt]
        assert link.is_symlink()

    def test_open_does_not_truncate(self, tmp_path, monkeypatch):
        # truncating on open frees the old file's blocks, which a rewrite
        # in place spares
        out = tmp_path / "out.csv"
        flags = []

        def recording_open(path, flag, *args, **kwargs):
            if os.fspath(path) == str(out):
                flags.append(flag)
            return os_open(path, flag, *args, **kwargs)

        os_open = os.open
        monkeypatch.setattr(os, "open", recording_open)
        self._run("array-matrix", "csv", out)
        self._run("array-matrix", "csv", out)
        assert len(flags) == 2
        assert all(flag & os.O_CREAT and not flag & os.O_TRUNC for flag in flags)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_write_leaves_a_prefix_of_the_new_file(self, tmp_path, monkeypatch, fmt):
        header, columns = _block_table(3 * _ROWS_PER_WRITE)
        fresh = tmp_path / f"fresh.{fmt}"
        _write_output(SweepConfig(mode="scf-field", format=fmt, out=str(fresh)), header, columns)
        full = fresh.read_bytes()
        out = tmp_path / f"out.{fmt}"
        out.write_bytes(b"#" * (2 * len(full)))
        # the head is the first write, each block of rows one more
        builtin_open = open
        monkeypatch.setattr("vmfcorr.cli.open",
                            lambda *a, **k: _FailingWrites(builtin_open(*a, **k), fail_at=3),
                            raising=False)
        with pytest.raises(OSError, match="write failed"):
            _write_output(SweepConfig(mode="scf-field", format=fmt, out=str(out)), header, columns)
        left = out.read_bytes()
        assert 0 < len(left) < len(full)
        assert full.startswith(left)


class TestMainExitCodes:
    def test_success(self, tmp_path):
        path = write_config(tmp_path / "c.json", curve_config())
        out = tmp_path / "c.csv"
        assert main(["scf-curve", "--config", path, "--out", str(out)]) == EXIT_OK
        assert out.exists()

    def test_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path / "bad.json", curve_config(cluster={"kappa": -3.0}))
        assert main(["scf-curve", "--config", path]) == EXIT_CONFIG
        assert "kappa" in capsys.readouterr().err

    def test_io_error_on_missing_config(self):
        assert main(["scf-curve", "--config", "/nonexistent/config.json"]) == EXIT_IO

    def test_io_error_on_unwritable_output(self, tmp_path):
        path = write_config(tmp_path / "c.json", curve_config())
        out = "/nonexistent-dir/out.csv"
        assert main(["scf-curve", "--config", path, "--out", out]) == EXIT_IO

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_io_error_on_a_full_device(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", curve_config())
        assert main(["scf-curve", "--config", path, "--out", "/dev/full"]) == EXIT_IO
        assert "No space left on device" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_null_device_is_written_and_not_cut(self, tmp_path, fmt):
        # ftruncate fails on a character device, so only regular files are cut
        path = write_config(tmp_path / "c.json", curve_config())
        assert main(["scf-curve", "--config", path, "--out", "/dev/null", "--format", fmt]) == EXIT_OK

    def test_validate_pass_and_fail(self, tmp_path, capsys):
        doc = {
            "mode": "validate",
            "kappas": [0.0, 10.0],
            "betas_deg": [0.0, 60.0],
            "d_over_lambda": {"start": 0.0, "stop": 2.0, "count": 5},
            "out": str(tmp_path / "validate.csv"),
        }
        path = write_config(tmp_path / "v.json", doc)
        assert main(["validate", "--config", path]) == EXIT_OK
        out = capsys.readouterr().out
        data = (tmp_path / "validate.csv").read_bytes()
        rows = [[float(v) for v in line.split(",")] for line in data.decode().splitlines()[1:]]
        worst = max(rows, key=lambda row: row[-1])
        first, second = out.splitlines()
        assert first.startswith(f"validate: max |closed - quadrature| = {worst[-1]:.3e} ")
        assert first.endswith(
            f" at kappa={worst[0]:g} beta_deg={worst[1]:g} d_over_lambda={worst[2]:g}"
        )
        per_kappa = [max(r[-1] for r in rows if r[0] == k) for k in (0.0, 10.0)]
        assert second == (
            f"validate: max error per kappa: 0: {per_kappa[0]:.3e}, 10: {per_kappa[1]:.3e}"
        )
        doc["tolerance"] = 1e-20
        doc["out"] = str(tmp_path / "validate-strict.csv")
        path = write_config(tmp_path / "v2.json", doc)
        assert main(["validate", "--config", path]) == EXIT_VALIDATION
        # the report goes to stdout only: the data file is the same bytes
        assert (tmp_path / "validate-strict.csv").read_bytes() == data

    def test_validate_kappa_beyond_quadrature_range_is_a_config_error(self, tmp_path, capsys):
        doc = {"mode": "validate", "kappas": [10.0, 2e6], "out": str(tmp_path / "v.csv")}
        path = write_config(tmp_path / "v.json", doc)
        assert main(["validate", "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: kappas: entries must be <= 1e+06\n"
        assert not (tmp_path / "v.csv").exists()
        doc["kappas"] = [1e6]
        doc["betas_deg"] = [0.0]
        doc["d_over_lambda"] = {"start": 0.0, "stop": 0.0, "count": 1}
        assert run(parse_config(json.dumps(doc))) == EXIT_OK

    def test_validate_at_radar_concentrations(self, tmp_path):
        # target widths of 1.6 to 0.23 deg, where the large-kappa form
        # must hold 1e-12 against the quadrature oracle
        doc = {"mode": "validate", "kappas": [2e4, 2e5, 1e6], "tolerance": 1e-12,
               "out": str(tmp_path / "v.csv")}
        path = write_config(tmp_path / "v.json", doc)
        assert main(["validate", "--config", path]) == EXIT_OK

    def test_uncertified_quadrature_is_a_validation_failure(self, tmp_path, capsys):
        doc = {"mode": "validate", "kappas": [0.0], "betas_deg": [0.0],
               "d_over_lambda": {"start": 0.0, "stop": 0.0, "count": 1},
               "quad_abs_tol": 1e-300, "quad_rel_tol": 1e-300, "out": str(tmp_path / "v.csv")}
        path = write_config(tmp_path / "v.json", doc)
        assert main(["validate", "--config", path]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: quadrature could not be certified: ")
        assert err.count("\n") == 1

    def test_transverse_point_at_the_quadrature_cap_validates(self, tmp_path, capsys):
        # k0 |d| = kappa transverse at kappa 1e6, held to 1e-12
        d_over_lambda = 1e6 / (2.0 * math.pi)
        doc = {"mode": "validate", "kappas": [1e6], "betas_deg": [90.0],
               "d_over_lambda": {"start": d_over_lambda, "stop": d_over_lambda, "count": 1},
               "tolerance": 1e-12, "out": str(tmp_path / "v.csv")}
        path = write_config(tmp_path / "v.json", doc)
        assert main(["validate", "--config", path]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name, key", [
        ("validate", "d_over_lambda"), ("scf-curve/beta", "d_over_lambda"),
        ("scf-field", "y_over_lambda"), ("acf-curve/wavelength", "dt_s"),
    ])
    def test_grid_count_too_large_is_a_config_error(self, tmp_path, capsys, name, key):
        # a count this large would make run crash in np.linspace
        out = tmp_path / "out.csv"
        doc = {**FULL_CONFIGS[name], "out": str(out), "format": "csv",
               key: _grid(count=10**400)}
        path = write_config(tmp_path / "c.json", doc)
        assert main([doc["mode"], "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {key}.count: must be <= 1000000\n"
        assert not out.exists()
        doc[key] = _grid(count=10**6)
        if doc["mode"] == "scf-field":  # the field's product bound allows one x point
            doc["x_over_lambda"] = _grid(count=1)
        parse_config(json.dumps(doc))

    @pytest.mark.parametrize("name, key, end", [
        ("validate", "d_over_lambda", "stop"), ("scf-curve/beta", "d_over_lambda", "stop"),
        ("scf-field", "x_over_lambda", "start"), ("scf-field", "y_over_lambda", "stop"),
    ])
    def test_grid_past_1e14_wavelengths_is_a_config_error(self, tmp_path, capsys, name, key,
                                                          end):
        # past k0 |d| ~ 1e15 the phase keeps no correct digit; at 1e14
        # wavelengths it stays below 8.9e14, an scf-field's x and y together
        out = tmp_path / "out.csv"
        doc = {**FULL_CONFIGS[name], "out": str(out), "format": "csv"}
        sign = -1.0 if end == "start" else 1.0
        for bound in (float(np.nextafter(1e14, math.inf)), 1e300):
            doc[key] = _grid(**{end: sign * bound})
            path = write_config(tmp_path / "c.json", doc)
            assert main([doc["mode"], "--config", path]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"config error: {key}.{end}: must lie in [-1e+14, 1e+14]\n")
            assert not out.exists()
        doc[key] = _grid(**{end: sign * 1e14})
        path = write_config(tmp_path / "c.json", doc)
        status = main([doc["mode"], "--config", path])
        if doc["mode"] == "validate":  # the quadrature is not certified out there
            assert status == EXIT_VALIDATION and not out.exists()
        else:
            assert status == EXIT_OK
            cells = [row.split(",") for row in out.read_text().splitlines()[1:]]
            assert all(math.isfinite(float(cell)) for row in cells for cell in row)

    def test_validate_past_the_grid_bound_is_a_config_error(self, tmp_path, capsys):
        # the closed form's phase overflows at 1e300 wavelengths: refused on
        # parse, before any evaluation
        out = tmp_path / "out.csv"
        doc = {"mode": "validate", "kappas": [10], "betas_deg": [30], "out": str(out),
               "d_over_lambda": {"start": 1e300, "stop": 1e300, "count": 1}}
        path = write_config(tmp_path / "c.json", doc)
        assert main(["validate", "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: d_over_lambda.start: must lie in [-1e+14, 1e+14]\n")
        assert not out.exists()

    @pytest.mark.parametrize("name, key", [
        ("scf-curve/beta", "cluster"), ("scf-curve/sweep", "kappas"), ("scf-field", "clusters"),
        ("acf-curve/carrier", "cluster"), ("array-matrix/linear", "cluster"),
    ])
    def test_kappa_past_1e150_is_a_config_error(self, tmp_path, capsys, name, key):
        # kappa past 1e150 is evaluated while the kernel's radicand is a finite
        # double: Python's kappa**2 overflows from 2^512 = 1.34e154 on
        out = tmp_path / "out.csv"
        doc = {**FULL_CONFIGS[name], "out": str(out), "format": "csv"}

        def with_kappa(kappa):
            if key == "kappas":
                return [0.0, kappa]
            if key == "clusters":
                return [_cluster_block(kappa=kappa, power=0.25), *doc["clusters"][1:]]
            return _cluster_block(kappa=kappa)

        for kappa in (2.0**512, 1e160, 1e300):
            doc[key] = with_kappa(kappa)
            path = write_config(tmp_path / "c.json", doc)
            assert main([doc["mode"], "--config", path]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: the radicand is not a finite double at "
                                  f"kappa = {kappa:.6g}, |d| = ") and err.endswith(" wavelengths\n")
            assert not out.exists()
        for kappa in (1e150, float(np.nextafter(1e150, math.inf)), 1e152,
                      float(np.nextafter(2.0**512, 0.0))):
            doc[key] = with_kappa(kappa)
            path = write_config(tmp_path / "c.json", doc)
            assert main([doc["mode"], "--config", path]) == EXIT_OK
            cells = [row.split(",") for row in out.read_text().splitlines()[1:]]
            assert all(math.isfinite(float(cell)) for row in cells for cell in row)

    def test_radar_width_past_the_kappa_bound_is_a_config_error(self, tmp_path, capsys):
        # 1e-150 deg gives kappa 5.3e304, whose square overflows in the kernel's
        # radicand at every lag, so the refusal names the cell's first scanned
        # lag, its own first lag past half its crossing floor, in wavelengths
        # travelled on the search's grid from 1e-6 wavelengths; below about
        # 1e-160 deg the concentration's sin^2(width / 4) underflows to 0;
        # 1e-70 deg gives 5.3e144
        out = tmp_path / "out.csv"
        doc = {**FULL_CONFIGS["radar-table"], "out": str(out), "format": "csv"}
        refused = {
            1e-150: "the radicand is not a finite double at kappa = 5.25249e+304, "
                    "|d| = 5.42469e+151 wavelengths",
            1e-200: f"angular width {math.radians(1e-200)} is too narrow for a finite kappa",
            5e-324: "widths_deg[1]: must lie in (0, 180), and above 0 in radians",
        }
        for width, message in refused.items():
            doc["widths_deg"] = [2.0, width, 1e-70]
            path = write_config(tmp_path / "c.json", doc)
            assert main(["radar-table", "--config", path]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"config error: {message}\n"
            assert not out.exists()
        doc["widths_deg"] = [2.0, 1e-70]
        path = write_config(tmp_path / "c.json", doc)
        assert main(["radar-table", "--config", path]) == EXIT_OK
        cells = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert all(math.isfinite(float(cell)) for row in cells for cell in row)

    @pytest.mark.parametrize("name", ["acf-curve/carrier", "radar-table"])
    def test_carrier_without_a_finite_wavelength_is_a_config_error(self, tmp_path, capsys,
                                                                    name):
        # c / 1e-300 Hz overflows to inf; c / 1e-290 Hz is 3.0e298 m
        out = tmp_path / "out.csv"
        doc = {**FULL_CONFIGS[name], "out": str(out), "format": "csv",
               "carrier_frequency_hz": 1e-300}
        path = write_config(tmp_path / "c.json", doc)
        assert main([doc["mode"], "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: carrier_frequency_hz: must give a finite wavelength c / f\n")
        assert not out.exists()
        doc["carrier_frequency_hz"] = 1e-290
        path = write_config(tmp_path / "c.json", doc)
        assert main([doc["mode"], "--config", path]) == EXIT_OK
        assert out.exists()

    @pytest.mark.parametrize("name", ["acf-curve/carrier", "acf-curve/wavelength"])
    def test_acf_lag_displacement_past_1e14_wavelengths_is_a_config_error(self, tmp_path,
                                                                          capsys, name):
        # speed_mps or dt_s.stop of 1e300 overflowed the lag displacement; past
        # 1e14 wavelengths its phase keeps no correct digit. The carrier config
        # is monostatic, where the displacement is twice speed_mps * dt.
        out = tmp_path / "out.csv"
        doc = {**FULL_CONFIGS[name], "out": str(out), "format": "csv"}
        lam = parse_config(json.dumps(doc)).args["wavelength"]
        factor = 2.0 if doc.get("monostatic") else 1.0
        refused = [(1e300, 0.01), (20.0, 1e300), (1e20, 0.05),
                   (20.0, 1.001e14 * lam / (factor * 20.0))]
        for speed, stop in refused:
            doc["motion"] = {**doc["motion"], "speed_mps": speed}
            doc["dt_s"] = _grid(0.0, stop)
            path = write_config(tmp_path / "c.json", doc)
            assert main([doc["mode"], "--config", path]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                "config error: dt_s: the lag displacement speed_mps * dt, doubled when "
                "monostatic, must stay within 1e+14 wavelengths\n")
            assert not out.exists()
        doc["dt_s"] = _grid(0.0, 0.999e14 * lam / (factor * 20.0))
        path = write_config(tmp_path / "c.json", doc)
        assert main([doc["mode"], "--config", path]) == EXIT_OK
        cells = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert all(math.isfinite(float(cell)) for row in cells for cell in row)

    @pytest.mark.parametrize("name, refused, accepted", [
        ("array-matrix/linear", [{"spacing_over_lambda": 1e300},
                                 {"spacing_over_lambda": float(np.nextafter(5e13, math.inf))}],
         {"spacing_over_lambda": 5e13}),
        ("array-path/linear", [{"n": 1000, "spacing_over_lambda": 1.002e11}],
         {"n": 1000, "spacing_over_lambda": 1e11}),
        ("array-matrix/circular", [{"radius_over_lambda": 1e300},
                                   {"radius_over_lambda": float(np.nextafter(5e13, math.inf))}],
         {"radius_over_lambda": 5e13}),
        ("array-matrix/planar", [{"dx_over_lambda": 1e300}, {"dy_over_lambda": 1e300},
                                 {"dx_over_lambda": 6.000001e13, "dy_over_lambda": 4e13}],
         {"dx_over_lambda": 6e13, "dy_over_lambda": 4e13}),
    ])
    def test_array_wider_than_1e14_wavelengths_is_a_config_error(self, tmp_path, capsys,
                                                                 name, refused, accepted):
        # the largest element separation: spacing (n - 1) on a line, the
        # diameter of a circle and hypot(dx (nx - 1), dy (ny - 1)) on a grid
        # (2 x 3 here); 1e300 overflowed the element pair displacements
        out = tmp_path / "out.csv"
        doc = {**FULL_CONFIGS[name], "out": str(out), "format": "csv"}
        geometry = doc["geometry"]
        for overrides in refused:
            doc["geometry"] = {**geometry, **overrides}
            path = write_config(tmp_path / "c.json", doc)
            assert main([doc["mode"], "--config", path]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                "config error: geometry: the largest separation of two elements must be "
                "<= 1e+14 wavelengths\n")
            assert not out.exists()
        doc["geometry"] = {**geometry, **accepted}
        path = write_config(tmp_path / "c.json", doc)
        assert main([doc["mode"], "--config", path]) == EXIT_OK
        cells = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert all(math.isfinite(float(cell)) for row in cells for cell in row)

    @pytest.mark.parametrize("name, wavelength", [
        ("array-path/linear", 2.6815615859885194e154),
        ("array-matrix/circular", 1.375366155685454e308),
    ])
    def test_array_overflowing_in_meters_is_a_config_error(self, tmp_path, capsys, name,
                                                           wavelength):
        # elements 2.7e154 m apart square past the double range in the separation
        # check, and a radius of 1.5 wavelengths at 1.4e308 m is inf
        out = tmp_path / "out.csv"
        doc = {**FULL_CONFIGS[name], "out": str(out), "format": "csv", "wavelength": wavelength}
        path = write_config(tmp_path / "c.json", doc)
        assert main([doc["mode"], "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: geometry: ")
        assert not out.exists()

    def test_radar_search_past_its_bounds_is_a_config_error(self, tmp_path, capsys):
        # The search ends at each cell's horizon (10 + kappa / min(threshold, 0.5))
        # / f_m, which must be a finite double, and the lags before each cell's
        # first crossing must keep the kernel's radicand finite. At these widths
        # thresholds of 4.39498702174469e-154 and the next double below it take
        # the 170 deg cell's scan window past its crossing to lags whose radicand
        # is not finite; those lags are left out, so both give a table.
        out = tmp_path / "out.csv"
        base = {"mode": "radar-table", "out": str(out), "carrier_frequency_hz": 1e10,
                "elevation_deg": 20.0, "widths_deg": [4.0, 0.25, 170.0], "speeds_kmh": [40.0]}
        kappa = 1.0 / math.sin(math.radians(0.25) / 4.0) ** 2
        radicand = "config error: the radicand is not a finite double at kappa = {}, |d| = {}\n"
        horizon = ("config error: horizon must be positive and finite, got inf s at "
                   "kappa = {}, speed = {} m/s\n")
        refused = [
            ({"threshold": 1e-300}, radicand.format(3283.14, "1.71544e+153 wavelengths")),
            ({"widths_deg": [0.25], "speeds_kmh": [1e-305]},
             horizon.format(840399, "2.77778e-306")),
            ({"speeds_kmh": [40.0, 1e-304], "monostatic": False},
             horizon.format(840399, "2.77778e-305")),
        ]
        for overrides, message in refused:
            path = write_config(tmp_path / "c.json", {**base, **overrides})
            assert main(["radar-table", "--config", path]) == EXIT_CONFIG
            assert capsys.readouterr().err == message
            assert not out.exists()
        accepted = [{"threshold": 4.39498702174469e-154}, {"threshold": 4.3949870217446895e-154},
                    {"threshold": kappa / 2.01e153},
                    {"threshold": kappa / 1.99e153}, {"threshold": 1e-147},
                    {"widths_deg": [1e-70]},
                    {"widths_deg": [4.0, 1.0, 0.25], "speeds_kmh": [1e-300, 5.6e-304, 40.0]}]
        for overrides in accepted:
            path = write_config(tmp_path / "c.json", {**base, **overrides})
            assert main(["radar-table", "--config", path]) == EXIT_OK
            cells = [row.split(",") for row in out.read_text().splitlines()[1:]]
            assert all(math.isfinite(float(cell)) for row in cells for cell in row)
            out.unlink()

    @pytest.mark.parametrize("name, key, grid", [
        ("scf-field", "y_over_lambda", _grid(-2.0, 1.0)),
        ("scf-curve/beta", "d_over_lambda", _grid(0.0, 1000.0)),
        ("validate", "d_over_lambda", _grid(0.0, 1000.0)),
    ])
    def test_grid_past_the_double_range_in_meters_is_a_config_error(self, tmp_path, capsys,
                                                                    name, key, grid):
        # the rows take lengths in meters, wavelength units times the wavelength:
        # -2 at 1.39e308 m and 1000 at 1e306 m overflow, 1 and 100 do not
        out = tmp_path / "out.csv"
        doc = {**FULL_CONFIGS[name], "out": str(out), "format": "csv", key: grid,
               "wavelength": 1.3872254818396764e308 if name == "scf-field" else 1e306}
        path = write_config(tmp_path / "c.json", doc)
        assert main([doc["mode"], "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {key}: start and stop times the wavelength must be finite in meters\n")
        assert not out.exists()
        doc[key] = _grid(0.0, 1.0 if name == "scf-field" else 100.0)
        path = write_config(tmp_path / "c.json", doc)
        assert main([doc["mode"], "--config", path]) in (EXIT_OK, EXIT_VALIDATION)
        cells = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert all(math.isfinite(float(cell)) for row in cells for cell in row)

    def test_field_point_count_too_large_is_a_config_error(self, tmp_path, capsys):
        # each count is allowed, but np.meshgrid would need 7.3 TiB for the field
        out = tmp_path / "out.csv"
        doc = {**FULL_CONFIGS["scf-field"], "out": str(out), "format": "csv",
               "x_over_lambda": _grid(count=10**6), "y_over_lambda": _grid(count=10**6)}
        path = write_config(tmp_path / "c.json", doc)
        assert main(["scf-field", "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: x_over_lambda.count * y_over_lambda.count: must be <= 1000000\n")
        assert not out.exists()
        doc["x_over_lambda"], doc["y_over_lambda"] = _grid(count=1000), _grid(count=1001)
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))
        doc["y_over_lambda"] = _grid(count=1000)
        parse_config(json.dumps(doc))

    @pytest.mark.parametrize("name, counts, key", [
        ("array-matrix/linear", {"n": 1001}, "n"),
        ("array-matrix/circular", {"n": 1001}, "n"),
        ("array-path/linear", {"n": 1001}, "n"),
        ("array-matrix/planar", {"nx": 7, "ny": 143}, "nx * ny"),
    ])
    def test_element_count_too_large_is_a_config_error(self, tmp_path, capsys, name, counts,
                                                       key):
        # the geometry holds all n^2 element pair displacements: 24 GB at n = 20,000
        out = tmp_path / "out.csv"
        doc = {**FULL_CONFIGS[name], "out": str(out), "format": "csv"}
        doc["geometry"] = {**doc["geometry"], **counts}
        path = write_config(tmp_path / "c.json", doc)
        assert main([doc["mode"], "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: geometry.{key}: must be <= 1000\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["cluster", "clusters"])
    @pytest.mark.parametrize("name", ["scf-field", "acf-curve/wavelength",
                                      "array-matrix/circular", "array-path/linear",
                                      "scf-curve/direction", "scf-curve/sweep"])
    def test_single_cluster_power_must_be_one(self, tmp_path, capsys, name, key):
        # a `cluster` is a cluster set of one, as is a one-entry `clusters`:
        # its power must sum to 1 like any set's, or run would raise (or the
        # kappa sweep ignore it)
        out = tmp_path / "out.csv"
        doc = {k: v for k, v in FULL_CONFIGS[name].items() if k not in ("cluster", "clusters")}
        doc["out"], doc["format"] = str(out), "csv"
        block = _cluster_block(power=0.5)
        if "kappas" in doc:  # the sweep sets each curve's kappa
            del block["kappa"]
        doc[key] = block if key == "cluster" else [block]
        path = write_config(tmp_path / "c.json", doc)
        assert main([doc["mode"], "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {key}: powers must sum to 1, got 0.5\n"
        assert not out.exists()
        block["power"] = 1.0 - 1e-12
        assert parse_config(json.dumps(doc)).args["clusters"][0].power == 1.0 - 1e-12

    @pytest.mark.parametrize("key, value", [("kappa", 3.0), ("power", 0.5)])
    def test_validate_cluster_names_the_mean_direction_only(self, tmp_path, capsys, key, value):
        # validate sweeps its own kappas at unit power, so a cluster kappa or
        # power would be ignored
        out = tmp_path / "v.csv"
        doc = {"mode": "validate", "cluster": {"mu_phi_deg": 10.0, key: value},
               "kappas": [0.0, 10.0], "out": str(out)}
        path = write_config(tmp_path / "v.json", doc)
        assert main(["validate", "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: cluster: unknown key '{key}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["cluster", "clusters"])
    def test_scf_curve_cluster_kappa_with_kappas_is_a_config_error(self, tmp_path, capsys, key):
        # the kappa sweep sets each curve's kappa, so a cluster kappa would be
        # ignored
        out = tmp_path / "c.csv"
        block = {"kappa": 3.0, "mu_phi_deg": 10.0}
        doc = {"mode": "scf-curve", "wavelength": 1.0, key: block if key == "cluster" else [block],
               "kappas": [0.0, 10.0], "d_over_lambda": _grid(), "out": str(out)}
        path = write_config(tmp_path / "c.json", doc)
        assert main(["scf-curve", "--config", path]) == EXIT_CONFIG
        label = key if key == "cluster" else "clusters[0]"
        assert capsys.readouterr().err == (
            f"config error: {label}.kappa: cannot be combined with 'kappas', "
            "which sets each curve's kappa\n")
        assert not out.exists()

    def test_element_count_at_the_limit_is_accepted(self):
        doc = dict(FULL_CONFIGS["array-matrix/linear"])
        doc["geometry"] = {**doc["geometry"], "n": 1000}
        assert parse_config(json.dumps(doc)).args["geometry"].positions.shape == (1000, 3)

    @pytest.mark.parametrize("overrides, message", [
        ({"tolerance": 10**400}, "tolerance: must be finite"),
        ({"kappas": [1.0, 10**400]}, "kappas[1]: must be a finite number"),
        ({"d_over_lambda": {"start": -(10**400), "stop": 1.0, "count": 3}},
         "d_over_lambda.start: must be finite"),
    ], ids=["number", "list-entry", "grid-start"])
    def test_integer_too_large_for_a_double_is_a_config_error(self, tmp_path, capsys,
                                                              overrides, message):
        doc = {"mode": "validate", **overrides, "out": str(tmp_path / "v.csv")}
        path = write_config(tmp_path / "v.json", doc)
        assert main(["validate", "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "v.csv").exists()

    def test_cli_overrides(self, tmp_path):
        path = write_config(tmp_path / "c.json", curve_config())
        out = tmp_path / "over.json"
        code = main([
            "scf-curve", "--config", path,
            "--out", str(out), "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert set(payload) == {"mode", "columns", "rows"}



def _leaves(doc, path=()):
    """The path of every number in a config, through nested objects and lists."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, (*path, key))
        elif _is_number(value):
            yield (*path, key)


# Doubles from the whole range, nan and the infinities among them (json.dumps
# spells them NaN and Infinity, which json.loads reads back), positive finite
# ones drawn apart so that more configs get past the readers, and integers,
# also past the double range
_DOUBLES = st.one_of(st.floats(), st.floats(0.0, sys.float_info.max),
                     st.integers(-(10**400), 10**400))
# Counts: small, or just past a limit, or past int64, which keeps each run short
_COUNTS = st.one_of(st.integers(-1, 5), st.sampled_from([1001, 10**6 + 1, 2**64]))


@st.composite
def _fuzzed_configs(draw, mode):
    """A full config of the mode with one to three of its numbers redrawn."""
    names = [name for name in FULL_CONFIGS if name.split("/")[0] == mode]
    doc = copy.deepcopy(FULL_CONFIGS[draw(st.sampled_from(names))])
    paths = draw(st.lists(st.sampled_from(list(_leaves(doc))), min_size=1, max_size=3,
                          unique=True))
    for path in paths:
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        number = _COUNTS if isinstance(parent[path[-1]], int) else _DOUBLES
        parent[path[-1]] = draw(number)
    return doc


def _written_cells(path, fmt):
    if fmt == "json":
        return [cell for row in json.loads(path.read_text())["rows"] for cell in row]
    return [float(cell) for line in path.read_text().splitlines()[1:] for cell in line.split(",")]


@pytest.mark.parametrize("mode", MODES)
@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_every_config_exits_cleanly(tmp_path_factory, capsys, mode, data):
    # any config a mode's schema can spell exits 0, 2 or 3, never with a
    # traceback or an escaped warning (pytest turns RuntimeWarning into an
    # error), and any file it writes holds finite cells only
    fmt = data.draw(st.sampled_from(["csv", "json"]))
    folder = tmp_path_factory.mktemp("fuzz")
    out = folder / f"out.{fmt}"
    doc = {**data.draw(_fuzzed_configs(mode)), "out": str(out), "format": fmt}
    status = main([mode, "--config", write_config(folder / "c.json", doc)])
    assert status in (EXIT_OK, EXIT_CONFIG, EXIT_VALIDATION)
    assert "Traceback" not in capsys.readouterr().err
    assert status != EXIT_CONFIG or not out.exists()
    if out.exists():
        assert all(math.isfinite(cell) for cell in _written_cells(out, fmt))


def test_import_loads_no_test_extras():
    # the library and its CLI need numpy only: nothing under src/ imports scipy,
    # and mpmath and hypothesis are test extras; a fresh interpreter sees what
    # the import itself loads, not what this test session has
    code = ("import sys, vmfcorr, vmfcorr.cli; print(sorted({'scipy', 'mpmath', 'hypothesis'}"
            " & {name.partition('.')[0] for name in sys.modules}))")
    src = str(Path(vmfcorr.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    assert result.stdout == "[]\n"
