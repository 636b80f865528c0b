"""Command-line front end: JSON sweep configs in, CSV or JSON data files out.

Angles cross this boundary in degrees and are converted to radians on parse;
geometry lengths and displacement grids are given in wavelength units.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from itertools import product

import numpy as np

from .arrays import ArrayGeometry, circular_array, correlation_matrix, linear_array, planar_grid, scf_along_path
from .correlation import MotionState, scf, scf_multicluster
from .oracles import (_MAX_QUADRATURE_KAPPA, QuadratureSpec, QuadratureToleranceError,
                      scf_quadrature)
from .radar import SPEED_OF_LIGHT, RadarScenario, decorrelation_table
from .vmf import VmfCluster, _tangent_basis, direction_from_angles

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
class GridSpec:
    start: float
    stop: float
    count: int

    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep description; exactly one mode, defaults filled in."""

    mode: str
    out: str | None = None
    format: str = "csv"
    wavelength: float | None = None
    clusters: tuple = ()
    kappas: tuple | None = None
    betas_deg: tuple | None = None
    direction: tuple | None = None
    d_grid: GridSpec | None = None
    x_grid: GridSpec | None = None
    y_grid: GridSpec | None = None
    dt_grid: GridSpec | None = None
    motion: MotionState | None = None
    monostatic: bool = False
    geometry: ArrayGeometry | None = None
    carrier_frequency: float | None = None
    elevation_deg: float = 0.0
    widths_deg: tuple | None = None
    speeds_kmh: tuple | None = None
    motion_azimuth_deg: float = 0.0
    threshold: float = 0.5
    tolerance: float = 1e-8
    quad_abs_tol: float = 1e-10
    quad_rel_tol: float = 1e-10


def output_path(config: SweepConfig) -> str:
    if config.out:
        return config.out
    return f"{config.mode.replace('-', '_')}.{config.format}"


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
            if minimum is not None and value < minimum:
                return self.fail(key, f"must be >= {minimum}", default)
            if maximum is not None and value > maximum:
                return self.fail(key, f"must be <= {maximum}", default)
            return value
        if not _is_number(value):
            return self.fail(key, "must be a number", default)
        value = _to_float(value)
        if not math.isfinite(value):
            return self.fail(key, "must be finite", default)
        if positive and value <= 0.0:
            return self.fail(key, "must be > 0", default)
        if nonnegative and value < 0.0:
            return self.fail(key, "must be >= 0", default)
        return value

    def close(self):
        for key in sorted(set(self.doc) - self.asked):
            self.errors.append(f"{self.label or 'config'}: unknown key '{key}'")


def _read_cluster(block, require_kappa=True):
    if block is None:
        return None
    kappa = block.read("kappa", float, 0.0, required=require_kappa, nonnegative=True)
    mu_phi = block.read("mu_phi_deg", float, 0.0)
    mu_psi = block.read("mu_psi_deg", float, 0.0)
    power = block.read("power", float, 1.0, positive=True)
    if block.errors:  # shared by the whole config: build only while it is clean
        return None
    try:
        return VmfCluster(math.radians(mu_phi), math.radians(mu_psi), kappa, power)
    except ValueError as exc:
        return block.fail(None, str(exc))


def _read_clusters(r, require_kappa=True):
    one, many = r.has("cluster"), r.has("clusters")
    if one and many:
        return r.fail("cluster", "give either 'cluster' or 'clusters', not both", ())
    if one:
        cluster = _read_cluster(r.read("cluster", dict), require_kappa)
        return (cluster,) if cluster is not None else ()
    blocks = r.get("clusters")
    if blocks is None:
        return r.fail("clusters", "required", ())
    if not isinstance(blocks, list) or not blocks:
        return r.fail("clusters", "must be a nonempty list", ())
    clusters = [_read_cluster(r.nested(f"clusters[{i}]", block), require_kappa)
                for i, block in enumerate(blocks)]
    clusters = tuple(c for c in clusters if c is not None)
    if len(clusters) == len(blocks) > 1:
        total = sum(c.power for c in clusters)
        if abs(total - 1.0) > 1e-9:
            r.fail("clusters", f"powers must sum to 1, got {total}")
    return clusters


# Points per grid: a million doubles is 8 MB per column.
_MAX_GRID_COUNT = 10**6


def _read_grid(r, key, *, required=False, default=None, nonnegative=False):
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
    return GridSpec(start, stop, count)


def _read_wavelength(r, carrier=False):
    if carrier:
        has_lam, has_freq = r.has("wavelength"), r.has("carrier_frequency_hz")
        if has_lam == has_freq:
            return r.fail("wavelength",
                          "give exactly one of 'wavelength' or 'carrier_frequency_hz'")
        if has_freq:
            freq = r.read("carrier_frequency_hz", float, positive=True)
            return SPEED_OF_LIGHT / freq if freq else None
    return r.read("wavelength", float, required=True, positive=True)


def _read_kappas(r, default=None, limit=math.inf):
    kappas = r.read("kappas", list) or default
    if kappas and any(k < 0.0 for k in kappas):
        r.fail("kappas", "entries must be >= 0")
    if kappas and any(k > limit for k in kappas):
        r.fail("kappas", f"entries must be <= {limit:g}")
    return kappas


def _parse_scf_curve(r):
    wavelength = _read_wavelength(r)
    clusters = _read_clusters(r, require_kappa=not r.has("kappas"))
    fields = dict(wavelength=wavelength, clusters=clusters, kappas=_read_kappas(r),
                  d_grid=_read_grid(r, "d_over_lambda", required=True, nonnegative=True))
    one, many = r.has("beta_deg"), r.has("betas_deg")
    if one and many:
        r.fail("beta_deg", "give either 'beta_deg' or 'betas_deg', not both")
    elif one:
        beta = r.read("beta_deg", float)
        fields["betas_deg"] = (beta,) if beta is not None else None
    else:
        fields["betas_deg"] = r.read("betas_deg", list)
    if r.has("direction"):
        block = r.read("direction", dict, expect="an object with phi_deg/psi_deg")
        if block is not None:
            phi = block.read("phi_deg", float, required=True)
            psi = block.read("psi_deg", float, 0.0)
            if abs(psi) > 90.0:
                block.fail("psi_deg", "must lie in [-90, 90]")
            elif phi is not None:
                fields["direction"] = tuple(direction_from_angles(*map(math.radians, (phi, psi))))
        if fields.get("betas_deg") is not None or fields["kappas"] is not None:
            r.fail("direction", "cannot be combined with beta/kappa sweeps")
    elif len(clusters) > 1:
        r.fail("direction", "required when more than one cluster is given")
    return fields


def _parse_scf_field(r):
    return dict(wavelength=_read_wavelength(r), clusters=_read_clusters(r),
                x_grid=_read_grid(r, "x_over_lambda", required=True),
                y_grid=_read_grid(r, "y_over_lambda", required=True))


def _parse_acf_curve(r):
    fields = dict(wavelength=_read_wavelength(r, carrier=True), clusters=_read_clusters(r),
                  dt_grid=_read_grid(r, "dt_s", required=True, nonnegative=True),
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
    if wavelength is None or None in args:
        return fields
    try:
        if kind == "linear":
            n, spacing, phi, psi = args
            axis = direction_from_angles(math.radians(phi), math.radians(psi))
            fields["geometry"] = linear_array(n, spacing * wavelength, axis)
        elif kind == "circular":
            fields["geometry"] = circular_array(args[0], args[1] * wavelength)
        else:
            nx, ny, dx, dy = args
            fields["geometry"] = planar_grid(nx, ny, dx * wavelength, dy * wavelength)
    except ValueError as exc:
        block.fail(None, str(exc))
    return fields


def _parse_radar_table(r):
    fields = dict(
        carrier_frequency=r.read("carrier_frequency_hz", float, required=True, positive=True),
        elevation_deg=r.read("elevation_deg", float, 0.0),
        widths_deg=r.read("widths_deg", list, required=True, positive=True),
        speeds_kmh=r.read("speeds_kmh", list, required=True, positive=True),
        motion_azimuth_deg=r.read("motion_azimuth_deg", float, 0.0),
        monostatic=r.read("monostatic", bool, True),
        threshold=r.read("threshold", float, 0.5),
    )
    if not 0.0 < fields["threshold"] < 1.0:
        r.fail("threshold", "must lie in (0, 1)")
    if fields["widths_deg"] and any(w >= 180.0 for w in fields["widths_deg"]):
        r.fail("widths_deg", "entries must be below 180")
    if abs(fields["elevation_deg"]) > 90.0:
        r.fail("elevation_deg", "must lie in [-90, 90]")
    return fields


def _parse_validate(r):
    wavelength = r.read("wavelength", float, 1.0, positive=True)
    clusters = ((_read_cluster(r.read("cluster", dict), require_kappa=False),)
                if r.has("cluster") else (VmfCluster(0.0, 0.0, 0.0),))
    return dict(
        wavelength=wavelength,
        clusters=clusters,
        # the quadrature oracle resolves concentrations up to its cap only
        kappas=_read_kappas(r, (0.0, 1.0, 10.0, 100.0), limit=_MAX_QUADRATURE_KAPPA),
        betas_deg=r.read("betas_deg", list) or (0.0, 30.0, 60.0, 90.0),
        d_grid=_read_grid(r, "d_over_lambda", nonnegative=True, default=GridSpec(0.0, 3.0, 13)),
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
    fields = _MODES[mode][0](r)
    for reader in r.opened:
        reader.close()
    if r.errors:
        raise ConfigError(r.errors)
    return SweepConfig(mode=mode, out=out, format=fmt, **fields)


def _complex_columns(values):
    """re, im and magnitude columns of complex values; the magnitude is
    hypot(re, im), which rounds as Python's abs(complex) does and np.abs
    does not always."""
    values = np.ravel(values)
    return [values.real, values.imag, np.hypot(values.real, values.imag)]


def _kappa_beta_sweep(config: SweepConfig, kappas, betas_deg):
    """Key columns [kappa, beta_deg, d_over_lambda], the (cluster, d) of each
    point and the closed form at each point, with d at angle beta from the
    first cluster's mean direction, turned towards its first tangent."""
    base = config.clusters[0]
    mean = base.mean_direction
    tangent, _ = _tangent_basis(mean)
    units = np.array([math.cos(b) * mean + math.sin(b) * tangent
                      for b in map(math.radians, betas_deg)])
    fractions = config.d_grid.points()
    ds = ((fractions * config.wavelength)[:, None] * units[:, None, :]).reshape(-1, 3)
    clusters = [VmfCluster(base.mu_phi, base.mu_psi, kappa, base.power) for kappa in kappas]
    keys = [grid.ravel() for grid in np.meshgrid(kappas, betas_deg, fractions, indexing="ij")]
    values = np.concatenate([scf(cluster, ds, config.wavelength) for cluster in clusters])
    return keys, product(clusters, ds), values


def _rows_scf_curve(config: SweepConfig):
    if config.direction is not None:
        fractions = config.d_grid.points()
        lengths = (fractions * config.wavelength)[:, None]
        values = scf_multicluster(config.clusters, lengths * np.asarray(config.direction),
                                  config.wavelength)
        return ["d_over_lambda", "re", "im", "abs"], [fractions, *_complex_columns(values)]
    kappas = config.kappas if config.kappas is not None else (config.clusters[0].kappa,)
    betas = config.betas_deg if config.betas_deg is not None else (0.0,)
    keys, _, values = _kappa_beta_sweep(config, kappas, betas)
    header = ["kappa", "beta_deg", "d_over_lambda", "re", "im", "abs"]
    return header, [*keys, *_complex_columns(values)]


def _rows_scf_field(config: SweepConfig):
    lam = config.wavelength
    gx, gy = np.meshgrid(config.x_grid.points(), config.y_grid.points())
    d = np.stack([gx * lam, gy * lam, np.zeros_like(gx)], axis=-1)
    values = scf_multicluster(config.clusters, d, lam)
    header = ["x_over_lambda", "y_over_lambda", "re", "im", "abs"]
    return header, [gx.ravel(), gy.ravel(), *_complex_columns(values)]


def _rows_acf_curve(config: SweepConfig):
    factor = 2.0 if config.monostatic else 1.0
    lags = config.dt_grid.points()
    d = (factor * lags)[:, None] * config.motion.velocity
    values = scf_multicluster(config.clusters, d, config.wavelength)
    return ["dt_s", "re", "im", "abs"], [lags, *_complex_columns(values)]


def _rows_array_matrix(config: SweepConfig):
    matrix = correlation_matrix(config.geometry, config.clusters, config.wavelength)
    rows, cols = np.indices(matrix.shape).reshape(2, -1)
    values = matrix.ravel()
    return ["row", "col", "re", "im"], [rows, cols, values.real, values.imag]


def _rows_array_path(config: SweepConfig):
    coords, values = zip(*scf_along_path(config.geometry, config.clusters, config.wavelength))
    header = ["s_over_lambda", "re", "im", "abs"]
    return header, [np.array(coords) / config.wavelength, *_complex_columns(values)]


def _rows_radar_table(config: SweepConfig):
    base = RadarScenario(
        carrier_frequency=config.carrier_frequency,
        target_elevation=math.radians(config.elevation_deg),
        target_angular_width=math.radians(config.widths_deg[0]),
        target_speed=config.speeds_kmh[0] / 3.6,
        motion_azimuth=math.radians(config.motion_azimuth_deg),
        monostatic=config.monostatic,
    )
    widths = [math.radians(w) for w in config.widths_deg]
    speeds = [v / 3.6 for v in config.speeds_kmh]
    table = decorrelation_table(widths, speeds, base, threshold=config.threshold)
    widths_deg, speeds_kmh = np.meshgrid(config.widths_deg, config.speeds_kmh, indexing="ij")
    header = ["width_deg", "speed_kmh", "decorrelation_time_s"]
    return header, [widths_deg.ravel(), speeds_kmh.ravel(), table.ravel()]


def _rows_validate(config: SweepConfig):
    lam = config.wavelength
    spec = QuadratureSpec(abs_tol=config.quad_abs_tol, rel_tol=config.quad_rel_tol)
    keys, points, closed = _kappa_beta_sweep(config, config.kappas, config.betas_deg)
    quad = np.array([scf_quadrature(cluster, d, lam, spec) for cluster, d in points])
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


def _write_output(config: SweepConfig, header, columns):
    # tolist gives Python ints for index columns and floats for the rest
    rows = zip(*(column.tolist() for column in columns))
    with open(output_path(config), "w", encoding="utf-8", newline="") as fh:
        if config.format == "csv":
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(map(repr, row)) + "\n")
        else:
            payload = {"mode": config.mode, "columns": list(header), "rows": list(rows)}
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")


def run(config: SweepConfig) -> int:
    """Evaluate the sweep and write the data file; returns the exit status."""
    header, columns = _MODES[config.mode][1](config)
    _write_output(config, header, columns)
    if config.mode == "validate":
        kappas, betas_deg, fractions, *_, errors = columns
        worst = int(np.argmax(errors))  # the first of equal maxima
        max_error = errors[worst]
        print(
            f"validate: max |closed - quadrature| = {max_error:.3e} "
            f"over {len(errors)} points (tolerance {config.tolerance:g}) "
            f"at kappa={kappas[worst]:g} beta_deg={betas_deg[worst]:g} "
            f"d_over_lambda={fractions[worst]:g}"
        )
        per_kappa = {k: errors[kappas == k].max() for k in dict.fromkeys(kappas.tolist())}
        print("validate: max error per kappa: "
              + ", ".join(f"{k:g}: {e:.3e}" for k, e in per_kappa.items()))
        if max_error > config.tolerance:
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
    except ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return run(config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except QuadratureToleranceError as exc:
        print(f"error: quadrature could not be certified: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
