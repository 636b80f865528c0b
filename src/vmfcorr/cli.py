"""Command-line front end: JSON sweep configs in, CSV or JSON data files out.

Angles cross this boundary in degrees and are converted to radians on parse;
geometry lengths and displacement grids are given in wavelength units.
"""

import argparse
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .arrays import circular_array, correlation_matrix, linear_array, planar_grid, scf_along_path
from .correlation import MotionState, _lag_displacement, scf, scf_multicluster
from .oracles import (_MAX_QUADRATURE_KAPPA, QuadratureSpec, QuadratureToleranceError,
                      scf_quadrature)
from .radar import SPEED_OF_LIGHT, RadarScenario, decorrelation_table
from .vmf import DomainError, VmfCluster, _tangent_basis, direction_from_angles

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Invalid sweep configuration; carries one message per violation."""

    def __init__(self, errors):
        self.errors = [str(e) for e in errors]
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class SweepConfig:
    """A validated sweep: its mode, the path and format of its data file, and the
    keyword arguments of the mode's row builder, defaults filled in by its reader."""

    mode: str
    out: str | None
    format: str
    args: dict = field(default_factory=dict)


def output_path(config: SweepConfig) -> str:
    return config.out or f"{config.mode.replace('-', '_')}.{config.format}"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _to_float(value) -> float:
    """A JSON number as a float; an integer too large for a double gives inf,
    which the finiteness checks reject."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


class _Reader:
    """Typed reads from one JSON object of a config.

    Every key a read asks for is recorded; `close` reports each key that no
    read asked for. Readers of nested objects share their parent's error
    list and are closed with it.
    """

    def __init__(self, doc: dict, label: str = "", parent=None):
        self.doc, self.label, self.asked = doc, label, set()
        self.errors = parent.errors if parent else []
        self.opened = parent.opened if parent else []
        self.opened.append(self)

    def name(self, key=None) -> str:
        return ".".join(part for part in (self.label, key) if part)

    def fail(self, key, message, default=None):
        """Record a violation at key (the object itself for None); gives default."""
        self.errors.append(f"{self.name(key)}: {message}")
        return default

    def has(self, key) -> bool:
        self.asked.add(key)
        return key in self.doc

    def get(self, key, default=None):
        self.asked.add(key)
        return self.doc.get(key, default)

    def nested(self, key, value, expect="an object"):
        """A reader for the value at key, which must be an object; None after
        recording why."""
        if isinstance(value, dict):
            return _Reader(value, self.name(key), self)
        return self.fail(key, f"must be {expect}")

    def read(self, key, kind, default=None, *, required=False, positive=False,
             nonnegative=False, minimum=None, maximum=None, expect="an object"):
        """The value at key as kind: float, int, bool, list (a nonempty tuple of
        floats) or dict (a nested reader). Gives default where the key is absent
        or its value invalid, after recording why."""
        if not self.has(key):
            return self.fail(key, "required", default) if required else default
        value = self.doc[key]
        if kind is dict:
            return self.nested(key, value, expect)
        if kind is list:
            if not isinstance(value, list) or not value:
                return self.fail(key, "must be a nonempty list of numbers", default)
            items = tuple(_to_float(item) if _is_number(item) else math.nan for item in value)
            for i, item in enumerate(items):
                if not math.isfinite(item):
                    return self.fail(f"{key}[{i}]", "must be a finite number", default)
                if positive and item <= 0.0:
                    return self.fail(f"{key}[{i}]", "must be > 0", default)
            return items
        if kind is bool:
            ok = isinstance(value, bool)
            return value if ok else self.fail(key, "must be a boolean", default)
        if kind is int:
            if isinstance(value, bool) or not isinstance(value, int):
                return self.fail(key, "must be an integer", default)
        elif not _is_number(value):
            return self.fail(key, "must be a number", default)
        else:
            value = _to_float(value)
            if not math.isfinite(value):
                return self.fail(key, "must be finite", default)
            if positive and value <= 0.0:
                return self.fail(key, "must be > 0", default)
            if nonnegative and value < 0.0:
                return self.fail(key, "must be >= 0", default)
        if minimum is not None and value < minimum:
            return self.fail(key, f"must be >= {minimum}", default)
        if maximum is not None and value > maximum:
            return self.fail(key, f"must be <= {maximum}", default)
        return value

    def close(self):
        for key in sorted(set(self.doc) - self.asked):
            self.errors.append(f"{self.label or 'config'}: unknown key '{key}'")


def _read_cluster(block, kappa_swept=False, direction_only=False):
    # a direction-only block names the mean direction alone, and gives a
    # unit-power cluster at kappa 0; kappa or power there is an unknown key.
    # Where `kappas` sweeps the concentration, a kappa there would go unused
    # and is an error.
    if block is None:
        return None
    if kappa_swept and block.has("kappa"):
        block.fail("kappa", "cannot be combined with 'kappas', which sets each curve's kappa")
    kappa = 0.0 if direction_only or kappa_swept else block.read(
        "kappa", float, required=True, nonnegative=True)
    mu_phi = block.read("mu_phi_deg", float, 0.0)
    mu_psi = block.read("mu_psi_deg", float, 0.0)
    power = 1.0 if direction_only else block.read("power", float, 1.0, positive=True)
    if block.errors:  # shared by the whole config: build only while it is clean
        return None
    try:
        return VmfCluster(math.radians(mu_phi), math.radians(mu_psi), kappa, power)
    except ValueError as exc:
        return block.fail(None, str(exc))


def _read_clusters(r, kappa_swept=False):
    # a `cluster` object is read as a `clusters` list of one, under its own label
    one, many = r.has("cluster"), r.has("clusters")
    if one and many:
        return r.fail("cluster", "give either 'cluster' or 'clusters', not both", ())
    key = "cluster" if one else "clusters"
    entries = [r.get(key)] if one else r.get(key)
    if entries is None:
        return r.fail(key, "required", ())
    if not isinstance(entries, list) or not entries:
        return r.fail(key, "must be a nonempty list", ())
    labels = [key] if one else [f"{key}[{i}]" for i in range(len(entries))]
    clusters = [_read_cluster(r.nested(label, entry), kappa_swept)
                for label, entry in zip(labels, entries)]
    if None not in clusters:  # the powers of a fully parsed set sum to 1
        total = sum(c.power for c in clusters)
        if abs(total - 1.0) > 1e-9:
            r.fail(key, f"powers must sum to 1, got {total}")
    return tuple(c for c in clusters if c is not None)


# Points per grid, and per scf-field (x times y): a million doubles is 8 MB
# per column.
_MAX_GRID_COUNT = 10**6
# Largest displacement in wavelengths, of a grid endpoint in wavelength units, an acf-curve
# lag or two array elements: the phase k0 |d| stays below 1e15, past which no digit is correct.
_MAX_WAVELENGTHS = 1e14


def _read_grid(r, key, *, required=False, default=None, nonnegative=False, lam=1.0):
    """The np.linspace points of the grid at key, or default after recording why."""
    grid = r.read(key, dict, required=required, expect="an object with start/stop/count")
    if grid is None:
        return default
    start = grid.read("start", float, required=True)
    stop = grid.read("stop", float, required=True)
    count = grid.read("count", int, required=True, minimum=1, maximum=_MAX_GRID_COUNT)
    if None in (start, stop, count):
        return default
    if stop < start:
        return r.fail(key, "stop must be >= start", default)
    if nonnegative and start < 0.0:
        return grid.fail("start", "must be >= 0", default)
    if key.endswith("_over_lambda") and max(abs(start), abs(stop)) > _MAX_WAVELENGTHS:
        end = "start" if abs(start) > _MAX_WAVELENGTHS else "stop"
        return grid.fail(end, f"must lie in [-{_MAX_WAVELENGTHS:g}, {_MAX_WAVELENGTHS:g}]", default)
    if not math.isfinite(max(abs(start), abs(stop)) * (lam or 1.0)):  # the ends in meters
        return r.fail(key, "start and stop times the wavelength must be finite in meters", default)
    return np.linspace(start, stop, count)


def _read_wavelength(r, carrier=False):
    if carrier:
        has_lam, has_freq = r.has("wavelength"), r.has("carrier_frequency_hz")
        if has_lam == has_freq:
            return r.fail("wavelength",
                          "give exactly one of 'wavelength' or 'carrier_frequency_hz'")
        if has_freq:
            freq = _read_carrier(r)
            return SPEED_OF_LIGHT / freq if freq else None
    return r.read("wavelength", float, required=True, positive=True)


def _read_carrier(r):
    freq = r.read("carrier_frequency_hz", float, required=True, positive=True)
    if freq and not math.isfinite(SPEED_OF_LIGHT / freq):
        return r.fail("carrier_frequency_hz", "must give a finite wavelength c / f")
    return freq


def _read_kappas(r, default=None, limit=math.inf):
    kappas = r.read("kappas", list) or default
    if kappas and any(k < 0.0 for k in kappas):
        r.fail("kappas", "entries must be >= 0")
    if kappas and any(k > limit for k in kappas):
        r.fail("kappas", f"entries must be <= {limit:g}")
    return kappas


def _parse_scf_curve(r):
    wavelength = _read_wavelength(r)
    clusters = _read_clusters(r, kappa_swept=r.has("kappas"))
    fields = dict(wavelength=wavelength, clusters=clusters, kappas=_read_kappas(r), direction=None,
                  fractions=_read_grid(r, "d_over_lambda", required=True, nonnegative=True,
                                       lam=wavelength))
    one, many = r.has("beta_deg"), r.has("betas_deg")
    if one and many:
        betas = r.fail("beta_deg", "give either 'beta_deg' or 'betas_deg', not both")
    elif one:
        beta = r.read("beta_deg", float)
        betas = (beta,) if beta is not None else None
    else:
        betas = r.read("betas_deg", list)
    if r.has("direction"):
        block = r.read("direction", dict, expect="an object with phi_deg/psi_deg")
        if block is not None:
            phi = block.read("phi_deg", float, required=True)
            psi = block.read("psi_deg", float, 0.0)
            if abs(psi) > 90.0:
                block.fail("psi_deg", "must lie in [-90, 90]")
            elif phi is not None:
                fields["direction"] = tuple(direction_from_angles(*map(math.radians, (phi, psi))))
        if betas is not None or fields["kappas"] is not None:
            r.fail("direction", "cannot be combined with beta/kappa sweeps")
    elif len(clusters) > 1:
        r.fail("direction", "required when more than one cluster is given")
    if fields["kappas"] is None and clusters:  # one curve, at the cluster's own kappa
        fields["kappas"] = (clusters[0].kappa,)
    fields["betas_deg"] = betas or (0.0,)
    return fields


def _parse_scf_field(r):
    lam = _read_wavelength(r)
    fields = dict(wavelength=lam, clusters=_read_clusters(r),
                  x=_read_grid(r, "x_over_lambda", required=True, lam=lam),
                  y=_read_grid(r, "y_over_lambda", required=True, lam=lam))
    x, y = fields["x"], fields["y"]
    if x is not None and y is not None and x.size * y.size > _MAX_GRID_COUNT:
        r.fail("x_over_lambda.count * y_over_lambda.count", f"must be <= {_MAX_GRID_COUNT}")
    return fields


def _parse_acf_curve(r):
    fields = dict(wavelength=_read_wavelength(r, carrier=True), clusters=_read_clusters(r),
                  lags=_read_grid(r, "dt_s", required=True, nonnegative=True),
                  monostatic=r.read("monostatic", bool, False))
    block = r.read("motion", dict, required=True,
                   expect="an object with speed_mps and direction angles")
    if block is not None:
        speed = block.read("speed_mps", float, required=True, nonnegative=True)
        phi_v = block.read("phi_v_deg", float, 0.0)
        psi_v = block.read("psi_v_deg", float, 0.0)
        if speed is not None:
            try:
                fields["motion"] = MotionState(speed, math.radians(phi_v), math.radians(psi_v))
            except ValueError as exc:
                block.fail(None, str(exc))
        # the largest lag displacement in wavelengths, in Python floats: an
        # overflow is an inf (a nan at lag 0), no warning
        lam, lags = fields["wavelength"], fields["lags"]
        if speed is not None and lam and lags is not None:
            reach = (2.0 if fields["monostatic"] else 1.0) * speed * lags[-1].item() / lam
            if not reach <= _MAX_WAVELENGTHS:
                r.fail("dt_s", "the lag displacement speed_mps * dt, doubled when monostatic, "
                               f"must stay within {_MAX_WAVELENGTHS:g} wavelengths")
    return fields


def _parse_array(r, kinds=("linear", "circular", "planar")):
    wavelength = _read_wavelength(r)
    fields = dict(wavelength=wavelength, clusters=_read_clusters(r))
    block = r.read("geometry", dict, required=True)
    if block is None:
        return fields
    kind = block.get("kind")
    if kind not in kinds:
        block.asked.update(block.doc)  # without a kind the other keys have no schema
        block.fail("kind", f"must be one of {', '.join(sorted(kinds))}")
        return fields
    count = partial(block.read, kind=int, required=True, minimum=1)
    length = partial(block.read, kind=float, required=True, positive=True)
    if kind == "linear":
        args = (count("n"), length("spacing_over_lambda"),
                block.read("axis_phi_deg", float, 0.0), block.read("axis_psi_deg", float, 0.0))
    elif kind == "circular":
        args = (count("n"), length("radius_over_lambda"))
    else:
        args = (count("nx"), count("ny"), length("dx_over_lambda"), length("dy_over_lambda"))
    if None in args:
        return fields
    # the geometry holds a displacement per element pair: n elements, n^2 points
    elements = args[0] * args[1] if kind == "planar" else args[0]
    if elements * elements > _MAX_GRID_COUNT:
        return block.fail("nx * ny" if kind == "planar" else "n",
                          f"must be <= {math.isqrt(_MAX_GRID_COUNT)}", fields)
    # the largest separation of two elements in wavelengths, in Python floats
    extent = (math.hypot(args[2] * (args[0] - 1), args[3] * (args[1] - 1)) if kind == "planar"
              else args[1] * (args[0] - 1 if kind == "linear" else 2))
    if extent > _MAX_WAVELENGTHS:
        return block.fail(None, "the largest separation of two elements must be <= "
                                f"{_MAX_WAVELENGTHS:g} wavelengths", fields)
    if wavelength is None:
        return fields
    try:  # positions in meters whose arithmetic overflows are refused
        with np.errstate(over="raise", invalid="raise"):
            if kind == "linear":
                n, spacing, phi, psi = args
                axis = direction_from_angles(math.radians(phi), math.radians(psi))
                fields["geometry"] = linear_array(n, spacing * wavelength, axis)
            elif kind == "circular":
                fields["geometry"] = circular_array(args[0], args[1] * wavelength)
            else:
                nx, ny, dx, dy = args
                fields["geometry"] = planar_grid(nx, ny, dx * wavelength, dy * wavelength)
    except (ValueError, FloatingPointError) as exc:
        block.fail(None, str(exc))
    return fields


def _parse_radar_table(r):
    fields = dict(
        carrier_frequency=_read_carrier(r),
        elevation_deg=r.read("elevation_deg", float, 0.0),
        widths_deg=r.read("widths_deg", list, required=True, positive=True),
        speeds_kmh=r.read("speeds_kmh", list, required=True, positive=True),
        motion_azimuth_deg=r.read("motion_azimuth_deg", float, 0.0),
        monostatic=r.read("monostatic", bool, True),
        threshold=r.read("threshold", float, 0.5),
    )
    if not 0.0 < fields["threshold"] < 1.0:
        r.fail("threshold", "must lie in (0, 1)")
    for i, width in enumerate(fields["widths_deg"] or ()):
        if not 0.0 < math.radians(width) < math.pi:  # 0 rad below about 1.4e-322 deg
            r.fail(f"widths_deg[{i}]", "must lie in (0, 180), and above 0 in radians")
    if abs(fields["elevation_deg"]) > 90.0:
        r.fail("elevation_deg", "must lie in [-90, 90]")
    return fields


def _parse_validate(r):
    wavelength = r.read("wavelength", float, 1.0, positive=True)
    clusters = ((_read_cluster(r.read("cluster", dict), direction_only=True),)
                if r.has("cluster") else (VmfCluster(0.0, 0.0, 0.0),))
    return dict(
        wavelength=wavelength,
        clusters=clusters,
        # the quadrature oracle resolves concentrations up to its cap only
        kappas=_read_kappas(r, (0.0, 1.0, 10.0, 100.0), limit=_MAX_QUADRATURE_KAPPA),
        betas_deg=r.read("betas_deg", list) or (0.0, 30.0, 60.0, 90.0),
        fractions=_read_grid(r, "d_over_lambda", nonnegative=True,
                             default=np.linspace(0.0, 3.0, 13), lam=wavelength),
        tolerance=r.read("tolerance", float, 1e-8, positive=True),
        quad_abs_tol=r.read("quad_abs_tol", float, 1e-10, positive=True),
        quad_rel_tol=r.read("quad_rel_tol", float, 1e-10, positive=True),
    )


def parse_config(text: str, mode: str | None = None) -> SweepConfig:
    """Validate a JSON sweep document and fill in defaults.

    Raises ConfigError carrying every violation found; an optional mode from
    the command line must agree with a mode key in the document.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from None
    if not isinstance(doc, dict):
        raise ConfigError(["config root must be a JSON object"])

    r = _Reader(doc)
    doc_mode = r.get("mode")
    if doc_mode is not None and (not isinstance(doc_mode, str) or doc_mode not in MODES):
        raise ConfigError([f"mode: exactly one of {', '.join(MODES)} must be set"])
    if doc_mode is not None and mode is not None and doc_mode != mode:
        raise ConfigError([f"mode: config sets '{doc_mode}' but '{mode}' was requested"])
    mode = mode or doc_mode
    if mode is None:
        raise ConfigError(["mode: required"])

    fmt = r.get("format", "csv")
    if fmt not in ("csv", "json"):
        r.fail("format", "must be 'csv' or 'json'")
    out = r.get("out")
    if out is not None and not isinstance(out, str):
        r.fail("out", "must be a string path")
    args = _MODES[mode][0](r)
    for reader in r.opened:
        reader.close()
    if r.errors:
        raise ConfigError(r.errors)
    return SweepConfig(mode=mode, out=out, format=fmt, args=args)


def _complex_columns(values):
    """re, im and magnitude columns of complex values; the magnitude is
    hypot(re, im), which rounds as Python's abs(complex) does and np.abs
    does not always."""
    values = np.ravel(values)
    return [values.real, values.imag, np.hypot(values.real, values.imag)]


def _kappa_beta_sweep(wavelength, clusters, kappas, betas_deg, fractions):
    """Key columns [kappa, beta_deg, d_over_lambda], the cluster of each kappa,
    the displacements d swept at each kappa and the closed form at each point,
    with d at angle beta from the first cluster's mean direction, turned
    towards its first tangent."""
    base = clusters[0]
    mean = base.mean_direction
    tangent, _ = _tangent_basis(mean)
    units = np.array([math.cos(b) * mean + math.sin(b) * tangent
                      for b in map(math.radians, betas_deg)])
    ds = ((fractions * wavelength)[:, None] * units[:, None, :]).reshape(-1, 3)
    swept = [VmfCluster(base.mu_phi, base.mu_psi, kappa, base.power) for kappa in kappas]
    keys = [grid.ravel() for grid in np.meshgrid(kappas, betas_deg, fractions, indexing="ij")]
    values = np.concatenate([scf(cluster, ds, wavelength) for cluster in swept])
    return keys, swept, ds, values


def _rows_scf_curve(wavelength, clusters, kappas, fractions, direction, betas_deg):
    if direction is not None:
        lengths = (fractions * wavelength)[:, None]
        values = scf_multicluster(clusters, lengths * np.asarray(direction), wavelength)
        return ["d_over_lambda", "re", "im", "abs"], [fractions, *_complex_columns(values)]
    keys, _, _, values = _kappa_beta_sweep(wavelength, clusters, kappas, betas_deg, fractions)
    header = ["kappa", "beta_deg", "d_over_lambda", "re", "im", "abs"]
    return header, [*keys, *_complex_columns(values)]


def _rows_scf_field(wavelength, clusters, x, y):
    gx, gy = np.meshgrid(x, y)
    d = np.stack([gx * wavelength, gy * wavelength, np.zeros_like(gx)], axis=-1)
    values = scf_multicluster(clusters, d, wavelength)
    header = ["x_over_lambda", "y_over_lambda", "re", "im", "abs"]
    return header, [gx.ravel(), gy.ravel(), *_complex_columns(values)]


def _rows_acf_curve(wavelength, clusters, lags, monostatic, motion):
    d = _lag_displacement(lags, motion.velocity, monostatic)
    values = scf_multicluster(clusters, d, wavelength)
    return ["dt_s", "re", "im", "abs"], [lags, *_complex_columns(values)]


def _rows_array_matrix(wavelength, clusters, geometry):
    matrix = correlation_matrix(geometry, clusters, wavelength)
    rows, cols = np.indices(matrix.shape).reshape(2, -1)
    values = matrix.ravel()
    return ["row", "col", "re", "im"], [rows, cols, values.real, values.imag]


def _rows_array_path(wavelength, clusters, geometry):
    coords, values = zip(*scf_along_path(geometry, clusters, wavelength))
    header = ["s_over_lambda", "re", "im", "abs"]
    return header, [np.array(coords) / wavelength, *_complex_columns(values)]


def _rows_radar_table(carrier_frequency, elevation_deg, widths_deg, speeds_kmh,
                      motion_azimuth_deg, monostatic, threshold):
    base = RadarScenario(
        carrier_frequency=carrier_frequency,
        target_elevation=math.radians(elevation_deg),
        target_angular_width=math.radians(widths_deg[0]),
        target_speed=speeds_kmh[0] / 3.6,
        motion_azimuth=math.radians(motion_azimuth_deg),
        monostatic=monostatic,
    )
    widths = [math.radians(w) for w in widths_deg]
    speeds = [v / 3.6 for v in speeds_kmh]
    table = decorrelation_table(widths, speeds, base, threshold=threshold)
    widths_grid, speeds_grid = np.meshgrid(widths_deg, speeds_kmh, indexing="ij")
    header = ["width_deg", "speed_kmh", "decorrelation_time_s"]
    return header, [widths_grid.ravel(), speeds_grid.ravel(), table.ravel()]


def _rows_validate(wavelength, clusters, kappas, betas_deg, fractions, tolerance,
                   quad_abs_tol, quad_rel_tol):
    # tolerance bounds the errors written, which run checks
    spec = QuadratureSpec(abs_tol=quad_abs_tol, rel_tol=quad_rel_tol)
    keys, swept, ds, closed = _kappa_beta_sweep(wavelength, clusters, kappas, betas_deg, fractions)
    quad = np.concatenate([scf_quadrature(cluster, ds, wavelength, spec) for cluster in swept])
    *_, error = _complex_columns(closed - quad)
    header = ["kappa", "beta_deg", "d_over_lambda", "closed_re", "closed_im",
              "quad_re", "quad_im", "abs_error"]
    return header, [*keys, closed.real, closed.imag, quad.real, quad.imag, error]


# mode -> (config parser, row builder)
_MODES = {
    "scf-curve": (_parse_scf_curve, _rows_scf_curve),
    "scf-field": (_parse_scf_field, _rows_scf_field),
    "acf-curve": (_parse_acf_curve, _rows_acf_curve),
    "array-matrix": (_parse_array, _rows_array_matrix),
    "array-path": (lambda r: _parse_array(r, ("linear", "circular")), _rows_array_path),
    "radar-table": (_parse_radar_table, _rows_radar_table),
    "validate": (_parse_validate, _rows_validate),
}
MODES = tuple(_MODES)


# How json.dump spells the floats that float.__repr__ spells otherwise.
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


# Rows joined and written at a time, which bounds the memory of the joined text.
_ROWS_PER_WRITE = 8192


def _distinct(column):
    """The sorted distinct entries of a column and each entry's index among
    them. Floats are told apart by bit pattern."""
    if column.dtype.kind == "i" and len(column):
        low = int(column.min())
        span = int(column.max()) - low + 1  # as Python ints: int64 extremes do not wrap
        if span <= len(column):
            # no more values in range than rows: mark each one present, in
            # order, instead of sorting the column
            offsets = column - low
            present = np.zeros(span, dtype=bool)
            present[offsets] = True
            return np.flatnonzero(present) + low, (np.cumsum(present) - 1)[offsets]
    keys = column.view(np.int64) if column.dtype == np.float64 else column
    distinct, inverse = np.unique(keys, return_inverse=True)
    return distinct.view(column.dtype), inverse


def _column_text(column, spelling, opening, close):
    """The text of each entry of a column, as an object array: its repr, or
    the dict spelling's entry for that repr, between opening and close.

    Each distinct entry is formatted once, so -0.0 and 0.0 keep their own
    text. The spelling is looked up only in a column that holds NaN or an
    infinity, and an empty opening is not prepended.
    """
    distinct, inverse = _distinct(column)
    # tolist gives Python ints for index columns and floats for the rest
    text = map(repr, distinct.tolist())
    if not np.isfinite(distinct).all():
        text = [spelling.get(t, t) for t in text]
    text = [opening + t + close for t in text] if opening else [t + close for t in text]
    return np.array(text, dtype=object)[inverse]


def _write_output(config: SweepConfig, header, columns):
    """Write the columns row by row: as CSV with each cell's repr, or as the
    JSON that json.dump writes, which spells floats as repr but for NaN and
    +-Infinity.

    An existing file is rewritten in place and then cut to the new length:
    opening without O_TRUNC spares freeing the old file's blocks and
    allocating them again (a 3.2 MB rewrite took 0.7 ms, against 2.7 ms
    through a truncating open, on ext4). If a write raises, the file is cut
    where the new bytes end, so it holds a prefix of the new file and none
    of the old one. A process killed mid-write can leave the new bytes
    followed by the rest of the old file. Only regular files are cut;
    /dev/null, FIFOs and terminals cannot be.
    """
    if config.format == "csv":
        head, sep, opening, close, spelling, tail = ",".join(header) + "\n", "", "", "\n", {}, ""
    else:
        payload = {"mode": config.mode, "columns": list(header), "rows": []}
        head = json.dumps(payload, separators=(",", ":"))[:-2]  # ends with "rows":[
        sep, opening, close, spelling, tail = ",", "[", "]", _JSON_SPELLING, "]}\n"
    # each cell's text carries what follows it, a comma or the row's close;
    # the first column's text also carries the separator and opening of its row
    last = len(columns) - 1
    cells = np.stack([_column_text(column, spelling, (sep + opening) * (i == 0),
                                   close if i == last else ",")
                      for i, column in enumerate(columns)], axis=1)
    if len(cells):
        cells[0, 0] = cells[0, 0][len(sep):]  # no separator before the first row
    fd = os.open(output_path(config), os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", encoding="utf-8", newline="") as fh:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            fh.write(head)
            for start in range(0, len(cells), _ROWS_PER_WRITE):
                fh.write("".join(cells[start:start + _ROWS_PER_WRITE].ravel().tolist()))
            fh.write(tail)
            fh.flush()
        finally:
            if regular:  # drop what is left of a longer old file past the new bytes
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def run(config: SweepConfig) -> int:
    """Evaluate the sweep and write the data file; returns the exit status."""
    header, columns = _MODES[config.mode][1](**config.args)
    _write_output(config, header, columns)
    if config.mode == "validate":
        kappas, betas_deg, fractions, *_, errors = columns
        worst = int(np.argmax(errors))  # the first of equal maxima
        max_error = errors[worst]
        print(
            f"validate: max |closed - quadrature| = {max_error:.3e} "
            f"over {len(errors)} points (tolerance {config.args['tolerance']:g}) "
            f"at kappa={kappas[worst]:g} beta_deg={betas_deg[worst]:g} "
            f"d_over_lambda={fractions[worst]:g}"
        )
        per_kappa = {k: errors[kappas == k].max() for k in dict.fromkeys(kappas.tolist())}
        print("validate: max error per kappa: "
              + ", ".join(f"{k:g}: {e:.3e}" for k, e in per_kappa.items()))
        if max_error > config.args["tolerance"]:
            return EXIT_VALIDATION
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vmfcorr",
        description="Spatial and temporal correlation sweeps for channels with "
                    "von Mises-Fisher scattering.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True, help="path to a JSON sweep configuration")
        p.add_argument("--out", help="output file path (default: <mode>.<format>)")
        p.add_argument("--format", choices=("csv", "json"), help="output format (default: csv)")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        config = parse_config(text, mode=args.mode)
        overrides = {"out": args.out, "format": args.format}
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
        return run(config)
    except (ConfigError, DomainError) as exc:  # run raises DomainError before opening the file
        for message in exc.errors if isinstance(exc, ConfigError) else [str(exc)]:
            print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except QuadratureToleranceError as exc:
        print(f"error: quadrature could not be certified: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
