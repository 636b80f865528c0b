import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vmfcorr import scf, scf_multicluster, VmfCluster
from vmfcorr.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    SweepConfig,
    _complex_columns,
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
        assert config.threshold == 0.5
        assert config.clusters[0].power == 1.0

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
        assert len(config.clusters) == 2

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
        "mode": "scf-curve", **_COMMON, "wavelength": 0.5, "cluster": _cluster_block(),
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
        "cluster": _cluster_block(),
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


# Every ```json block of the README is a complete config, so the docs cannot
# drift from the schema.
README_CONFIGS = re.findall(r"^```json\n(.*?)^```$",
                            (Path(__file__).parents[1] / "README.md").read_text(),
                            re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("text", README_CONFIGS, ids=lambda text: json.loads(text)["mode"])
def test_readme_config_runs(tmp_path, text):
    config = parse_config(text)
    assert run(replace(config, out=str(tmp_path / output_path(config)))) == EXIT_OK
    assert (tmp_path / output_path(config)).stat().st_size > 0


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
        cluster = config.clusters[0]
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


class TestWriterBytes:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(table=_tables())
    @example(table=(["row", "re"], [np.arange(4), np.array([0.0, -0.0, 0.0, -0.0])]))
    @example(table=(["row", "col", "re", "im"],
                    [np.array([3]), np.array([0]), *_complex_columns(np.array([complex(-0.0, -0.0)]))[:2]]))
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

    # SHA-256 of the data files as written before the writer formatted each
    # distinct cell once. A change to the formatting, or to any value by one
    # ulp, changes them.
    PINNED = {
        "array-matrix": (
            {"mode": "array-matrix", "wavelength": 1.0,
             "cluster": {"kappa": 5.0, "mu_phi_deg": 30.0, "mu_psi_deg": 10.0},
             "geometry": {"kind": "planar", "nx": 4, "ny": 4,
                          "dx_over_lambda": 0.5, "dy_over_lambda": 0.5}},
            {"csv": "4443e4222e817d4b4c75c1d752f5994223aabb6284fafab8d0dfcde8e7b2a9e5",
             "json": "8632290453fd106d48c08552b87614e13145e95e30054d67e70646b95e1b3c69"}),
        "scf-field": (
            {"mode": "scf-field", "wavelength": 1.0,
             "clusters": [{"kappa": 4.0, "mu_phi_deg": 20.0, "mu_psi_deg": 10.0, "power": 0.25},
                          {"kappa": 40.0, "mu_phi_deg": 150.0, "power": 0.75}],
             "x_over_lambda": _grid(-1.0, 1.0, 5), "y_over_lambda": _grid(-1.0, 1.0, 5)},
            {"csv": "933f55d344d189ddf2f57bc66667a4fbb6bf1ac96f1b3b6e57a50c7f6e996664",
             "json": "eb91d138c5870a253b507bb38f0c2c7a741063d3d1a14716162c4bafa19dd75d"}),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", PINNED)
    def test_pinned_bytes(self, tmp_path, name, fmt):
        doc, digests = self.PINNED[name]
        out = tmp_path / f"out.{fmt}"
        assert run(parse_config(json.dumps(dict(doc, format=fmt, out=str(out))))) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[fmt]


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

    def test_point_past_the_quadrature_work_bound_is_a_validation_failure(self, tmp_path,
                                                                          capsys):
        # k0 |d| = kappa transverse at kappa 1e6
        d_over_lambda = 1e6 / (2.0 * math.pi)
        doc = {"mode": "validate", "kappas": [1e6], "betas_deg": [90.0],
               "d_over_lambda": {"start": d_over_lambda, "stop": d_over_lambda, "count": 1},
               "out": str(tmp_path / "v.csv")}
        path = write_config(tmp_path / "v.json", doc)
        assert main(["validate", "--config", path]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: quadrature could not be certified: ")
        assert "work bound" in err and err.count("\n") == 1

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

    def test_element_count_at_the_limit_is_accepted(self):
        doc = dict(FULL_CONFIGS["array-matrix/linear"])
        doc["geometry"] = {**doc["geometry"], "n": 1000}
        assert parse_config(json.dumps(doc)).geometry.positions.shape == (1000, 3)

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
