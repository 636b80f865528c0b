"""Command-line front end: JSON sweep configs in, CSV or JSON data files out.

Angles cross this boundary in degrees and are converted to radians on parse;
geometry lengths and displacement grids are given in wavelength units.
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .arrays import ArrayGeometry, circular_array, correlation_matrix, linear_array, planar_grid, scf_along_path
from .correlation import MotionState, scf, scf_multicluster
from .oracles import QuadratureSpec, scf_quadrature
from .radar import SPEED_OF_LIGHT, RadarScenario, decorrelation_table
from .vmf import VmfCluster, _tangent_basis, direction_from_angles

MODES = (
    "scf-curve",
    "scf-field",
    "acf-curve",
    "array-matrix",
    "array-path",
    "radar-table",
    "validate",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

_COMMON_KEYS = {"mode", "out", "format"}
_MODE_KEYS = {
    "scf-curve": {"wavelength", "cluster", "clusters", "kappas", "beta_deg", "betas_deg",
                  "direction", "d_over_lambda"},
    "scf-field": {"wavelength", "cluster", "clusters", "x_over_lambda", "y_over_lambda"},
    "acf-curve": {"wavelength", "carrier_frequency_hz", "cluster", "clusters", "motion",
                  "monostatic", "dt_s"},
    "array-matrix": {"wavelength", "cluster", "clusters", "geometry"},
    "array-path": {"wavelength", "cluster", "clusters", "geometry"},
    "radar-table": {"carrier_frequency_hz", "elevation_deg", "widths_deg", "speeds_kmh",
                    "motion_azimuth_deg", "monostatic", "threshold"},
    "validate": {"wavelength", "cluster", "kappas", "betas_deg", "d_over_lambda",
                 "tolerance", "quad_abs_tol", "quad_rel_tol"},
}
_CLUSTER_KEYS = {"kappa", "mu_phi_deg", "mu_psi_deg", "power"}
_GRID_KEYS = {"start", "stop", "count"}
_MOTION_KEYS = {"speed_mps", "phi_v_deg", "psi_v_deg"}
_DIRECTION_KEYS = {"phi_deg", "psi_deg"}
_GEOMETRY_KEYS = {
    "linear": {"kind", "n", "spacing_over_lambda", "axis_phi_deg", "axis_psi_deg"},
    "circular": {"kind", "n", "radius_over_lambda"},
    "planar": {"kind", "nx", "ny", "dx_over_lambda", "dy_over_lambda"},
}


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


def _number(doc, key, errors, *, default=None, required=False, positive=False,
            nonnegative=False, label=None):
    label = label or key
    if key not in doc:
        if required:
            errors.append(f"{label}: required")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(f"{label}: must be a number")
        return default
    value = float(value)
    if not math.isfinite(value):
        errors.append(f"{label}: must be finite")
        return default
    if positive and value <= 0.0:
        errors.append(f"{label}: must be > 0")
        return default
    if nonnegative and value < 0.0:
        errors.append(f"{label}: must be >= 0")
        return default
    return value


def _integer(doc, key, errors, *, default=None, required=False, minimum=None, label=None):
    label = label or key
    if key not in doc:
        if required:
            errors.append(f"{label}: required")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{label}: must be an integer")
        return default
    if minimum is not None and value < minimum:
        errors.append(f"{label}: must be >= {minimum}")
        return default
    return value


def _number_list(doc, key, errors, *, required=False, positive=False, label=None):
    label = label or key
    if key not in doc:
        if required:
            errors.append(f"{label}: required")
        return None
    value = doc[key]
    if not isinstance(value, list) or not value:
        errors.append(f"{label}: must be a nonempty list of numbers")
        return None
    out = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)) or not math.isfinite(item):
            errors.append(f"{label}[{i}]: must be a finite number")
            return None
        if positive and item <= 0.0:
            errors.append(f"{label}[{i}]: must be > 0")
            return None
        out.append(float(item))
    return tuple(out)


def _check_unknown(block, allowed, errors, label):
    for key in sorted(set(block) - set(allowed)):
        errors.append(f"{label}: unknown key '{key}'")


def _parse_cluster_block(block, label, errors, require_kappa=True):
    if not isinstance(block, dict):
        errors.append(f"{label}: must be an object")
        return None
    _check_unknown(block, _CLUSTER_KEYS, errors, label)
    kappa = _number(block, "kappa", errors, default=0.0, required=require_kappa,
                    nonnegative=True, label=f"{label}.kappa")
    mu_phi = _number(block, "mu_phi_deg", errors, default=0.0, label=f"{label}.mu_phi_deg")
    mu_psi = _number(block, "mu_psi_deg", errors, default=0.0, label=f"{label}.mu_psi_deg")
    power = _number(block, "power", errors, default=1.0, positive=True, label=f"{label}.power")
    if errors:
        return None
    try:
        return VmfCluster(math.radians(mu_phi), math.radians(mu_psi), kappa, power)
    except ValueError as exc:
        errors.append(f"{label}: {exc}")
        return None


def _parse_clusters(doc, errors, require_kappa=True):
    if "cluster" in doc and "clusters" in doc:
        errors.append("cluster: give either 'cluster' or 'clusters', not both")
        return ()
    if "cluster" in doc:
        cluster = _parse_cluster_block(doc["cluster"], "cluster", errors, require_kappa)
        return (cluster,) if cluster is not None else ()
    blocks = doc.get("clusters")
    if blocks is None:
        errors.append("clusters: required")
        return ()
    if not isinstance(blocks, list) or not blocks:
        errors.append("clusters: must be a nonempty list")
        return ()
    clusters = []
    for i, block in enumerate(blocks):
        cluster = _parse_cluster_block(block, f"clusters[{i}]", errors, require_kappa)
        if cluster is not None:
            clusters.append(cluster)
    if len(clusters) == len(blocks):
        total = sum(c.power for c in clusters)
        if len(clusters) > 1 and abs(total - 1.0) > 1e-9:
            errors.append(f"clusters: powers must sum to 1, got {total}")
    return tuple(clusters)


def _parse_grid(doc, key, errors, *, required=False, default=None, nonnegative=False):
    if key not in doc:
        if required:
            errors.append(f"{key}: required")
        return default
    block = doc[key]
    if not isinstance(block, dict):
        errors.append(f"{key}: must be an object with start/stop/count")
        return default
    _check_unknown(block, _GRID_KEYS, errors, key)
    start = _number(block, "start", errors, required=True, label=f"{key}.start")
    stop = _number(block, "stop", errors, required=True, label=f"{key}.stop")
    count = _integer(block, "count", errors, required=True, minimum=1, label=f"{key}.count")
    if start is None or stop is None or count is None:
        return default
    if stop < start:
        errors.append(f"{key}: stop must be >= start")
        return default
    if nonnegative and start < 0.0:
        errors.append(f"{key}.start: must be >= 0")
        return default
    return GridSpec(start, stop, count)


def _parse_geometry(doc, errors, wavelength, kinds):
    block = doc.get("geometry")
    if block is None:
        errors.append("geometry: required")
        return None
    if not isinstance(block, dict):
        errors.append("geometry: must be an object")
        return None
    kind = block.get("kind")
    if kind not in kinds:
        errors.append(f"geometry.kind: must be one of {', '.join(sorted(kinds))}")
        return None
    _check_unknown(block, _GEOMETRY_KEYS[kind], errors, "geometry")
    if wavelength is None:
        return None
    try:
        if kind == "linear":
            n = _integer(block, "n", errors, required=True, minimum=1, label="geometry.n")
            spacing = _number(block, "spacing_over_lambda", errors, required=True,
                              positive=True, label="geometry.spacing_over_lambda")
            axis_phi = _number(block, "axis_phi_deg", errors, default=0.0,
                               label="geometry.axis_phi_deg")
            axis_psi = _number(block, "axis_psi_deg", errors, default=0.0,
                               label="geometry.axis_psi_deg")
            if n is None or spacing is None:
                return None
            axis = direction_from_angles(math.radians(axis_phi), math.radians(axis_psi))
            return linear_array(n, spacing * wavelength, axis)
        if kind == "circular":
            n = _integer(block, "n", errors, required=True, minimum=1, label="geometry.n")
            radius = _number(block, "radius_over_lambda", errors, required=True,
                             positive=True, label="geometry.radius_over_lambda")
            if n is None or radius is None:
                return None
            return circular_array(n, radius * wavelength)
        nx = _integer(block, "nx", errors, required=True, minimum=1, label="geometry.nx")
        ny = _integer(block, "ny", errors, required=True, minimum=1, label="geometry.ny")
        dx = _number(block, "dx_over_lambda", errors, required=True, positive=True,
                     label="geometry.dx_over_lambda")
        dy = _number(block, "dy_over_lambda", errors, required=True, positive=True,
                     label="geometry.dy_over_lambda")
        if None in (nx, ny, dx, dy):
            return None
        return planar_grid(nx, ny, dx * wavelength, dy * wavelength)
    except ValueError as exc:
        errors.append(f"geometry: {exc}")
        return None


def _parse_wavelength(doc, errors, allow_carrier=False):
    if allow_carrier:
        has_lam = "wavelength" in doc
        has_freq = "carrier_frequency_hz" in doc
        if has_lam == has_freq:
            errors.append("wavelength: give exactly one of 'wavelength' or 'carrier_frequency_hz'")
            return None
        if has_freq:
            freq = _number(doc, "carrier_frequency_hz", errors, positive=True)
            return SPEED_OF_LIGHT / freq if freq else None
    return _number(doc, "wavelength", errors, required=True, positive=True)


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

    errors: list[str] = []
    doc_mode = doc.get("mode")
    if doc_mode is not None and (not isinstance(doc_mode, str) or doc_mode not in MODES):
        raise ConfigError([f"mode: exactly one of {', '.join(MODES)} must be set"])
    if doc_mode is not None and mode is not None and doc_mode != mode:
        raise ConfigError([f"mode: config sets '{doc_mode}' but '{mode}' was requested"])
    effective_mode = mode or doc_mode
    if effective_mode is None:
        raise ConfigError(["mode: required"])

    _check_unknown(doc, _COMMON_KEYS | _MODE_KEYS[effective_mode], errors, "config")

    fmt = doc.get("format", "csv")
    if fmt not in ("csv", "json"):
        errors.append("format: must be 'csv' or 'json'")
        fmt = "csv"
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        errors.append("out: must be a string path")
        out = None

    kwargs = dict(mode=effective_mode, out=out, format=fmt)

    if effective_mode == "scf-curve":
        kwargs["wavelength"] = _parse_wavelength(doc, errors)
        clusters = _parse_clusters(doc, errors, require_kappa="kappas" not in doc)
        kwargs["clusters"] = clusters
        kwargs["d_grid"] = _parse_grid(doc, "d_over_lambda", errors, required=True,
                                       nonnegative=True)
        kwargs["kappas"] = _number_list(doc, "kappas", errors)
        if kwargs["kappas"] is not None and any(k < 0 for k in kwargs["kappas"]):
            errors.append("kappas: entries must be >= 0")
        if "beta_deg" in doc and "betas_deg" in doc:
            errors.append("beta_deg: give either 'beta_deg' or 'betas_deg', not both")
        elif "beta_deg" in doc:
            beta = _number(doc, "beta_deg", errors)
            kwargs["betas_deg"] = (beta,) if beta is not None else None
        else:
            kwargs["betas_deg"] = _number_list(doc, "betas_deg", errors)
        if "direction" in doc:
            block = doc["direction"]
            if not isinstance(block, dict):
                errors.append("direction: must be an object with phi_deg/psi_deg")
            else:
                _check_unknown(block, _DIRECTION_KEYS, errors, "direction")
                phi = _number(block, "phi_deg", errors, required=True, label="direction.phi_deg")
                psi = _number(block, "psi_deg", errors, default=0.0, label="direction.psi_deg")
                if psi is not None and abs(psi) > 90.0:
                    errors.append("direction.psi_deg: must lie in [-90, 90]")
                elif phi is not None:
                    kwargs["direction"] = tuple(
                        direction_from_angles(math.radians(phi), math.radians(psi))
                    )
            if kwargs.get("betas_deg") is not None or kwargs.get("kappas") is not None:
                errors.append("direction: cannot be combined with beta/kappa sweeps")
        elif len(clusters) > 1:
            errors.append("direction: required when more than one cluster is given")

    elif effective_mode == "scf-field":
        kwargs["wavelength"] = _parse_wavelength(doc, errors)
        kwargs["clusters"] = _parse_clusters(doc, errors)
        kwargs["x_grid"] = _parse_grid(doc, "x_over_lambda", errors, required=True)
        kwargs["y_grid"] = _parse_grid(doc, "y_over_lambda", errors, required=True)

    elif effective_mode == "acf-curve":
        kwargs["wavelength"] = _parse_wavelength(doc, errors, allow_carrier=True)
        kwargs["clusters"] = _parse_clusters(doc, errors)
        kwargs["dt_grid"] = _parse_grid(doc, "dt_s", errors, required=True, nonnegative=True)
        kwargs["monostatic"] = doc.get("monostatic", False)
        if not isinstance(kwargs["monostatic"], bool):
            errors.append("monostatic: must be a boolean")
            kwargs["monostatic"] = False
        block = doc.get("motion")
        if not isinstance(block, dict):
            errors.append("motion: required object with speed_mps and direction angles")
        else:
            _check_unknown(block, _MOTION_KEYS, errors, "motion")
            speed = _number(block, "speed_mps", errors, required=True, nonnegative=True,
                            label="motion.speed_mps")
            phi_v = _number(block, "phi_v_deg", errors, default=0.0, label="motion.phi_v_deg")
            psi_v = _number(block, "psi_v_deg", errors, default=0.0, label="motion.psi_v_deg")
            if speed is not None:
                try:
                    kwargs["motion"] = MotionState(speed, math.radians(phi_v), math.radians(psi_v))
                except ValueError as exc:
                    errors.append(f"motion: {exc}")

    elif effective_mode in ("array-matrix", "array-path"):
        kwargs["wavelength"] = _parse_wavelength(doc, errors)
        kwargs["clusters"] = _parse_clusters(doc, errors)
        kinds = ("linear", "circular") if effective_mode == "array-path" else (
            "linear", "circular", "planar")
        kwargs["geometry"] = _parse_geometry(doc, errors, kwargs["wavelength"], kinds)

    elif effective_mode == "radar-table":
        freq = _number(doc, "carrier_frequency_hz", errors, required=True, positive=True)
        kwargs["carrier_frequency"] = freq
        kwargs["elevation_deg"] = _number(doc, "elevation_deg", errors, default=0.0)
        kwargs["widths_deg"] = _number_list(doc, "widths_deg", errors, required=True,
                                            positive=True)
        kwargs["speeds_kmh"] = _number_list(doc, "speeds_kmh", errors, required=True,
                                            positive=True)
        kwargs["motion_azimuth_deg"] = _number(doc, "motion_azimuth_deg", errors, default=0.0)
        kwargs["monostatic"] = doc.get("monostatic", True)
        if not isinstance(kwargs["monostatic"], bool):
            errors.append("monostatic: must be a boolean")
            kwargs["monostatic"] = True
        threshold = _number(doc, "threshold", errors, default=0.5)
        if threshold is not None and not 0.0 < threshold < 1.0:
            errors.append("threshold: must lie in (0, 1)")
        else:
            kwargs["threshold"] = threshold
        if kwargs["widths_deg"] and any(w >= 180.0 for w in kwargs["widths_deg"]):
            errors.append("widths_deg: entries must be below 180")
        if kwargs["elevation_deg"] is not None and abs(kwargs["elevation_deg"]) > 90.0:
            errors.append("elevation_deg: must lie in [-90, 90]")

    elif effective_mode == "validate":
        kwargs["wavelength"] = _number(doc, "wavelength", errors, default=1.0, positive=True)
        if "cluster" in doc:
            cluster = _parse_cluster_block(doc["cluster"], "cluster", errors, require_kappa=False)
            kwargs["clusters"] = (cluster,) if cluster is not None else ()
        else:
            kwargs["clusters"] = (VmfCluster(0.0, 0.0, 0.0),)
        kwargs["kappas"] = _number_list(doc, "kappas", errors) or (0.0, 1.0, 10.0, 100.0)
        if any(k < 0 for k in kwargs["kappas"]):
            errors.append("kappas: entries must be >= 0")
        kwargs["betas_deg"] = _number_list(doc, "betas_deg", errors) or (0.0, 30.0, 60.0, 90.0)
        kwargs["d_grid"] = _parse_grid(doc, "d_over_lambda", errors, nonnegative=True,
                                       default=GridSpec(0.0, 3.0, 13))
        kwargs["tolerance"] = _number(doc, "tolerance", errors, default=1e-8, positive=True)
        kwargs["quad_abs_tol"] = _number(doc, "quad_abs_tol", errors, default=1e-10,
                                         positive=True)
        kwargs["quad_rel_tol"] = _number(doc, "quad_rel_tol", errors, default=1e-10,
                                         positive=True)

    if errors:
        raise ConfigError(errors)
    return SweepConfig(**kwargs)


def _beta_direction(cluster: VmfCluster, beta: float) -> np.ndarray:
    mean = cluster.mean_direction
    tangent, _ = _tangent_basis(mean)
    return math.cos(beta) * mean + math.sin(beta) * tangent


def _rows_scf_curve(config: SweepConfig):
    lam = config.wavelength
    fractions = config.d_grid.points()
    lengths = (fractions * lam)[:, None]
    if config.direction is not None:
        values = scf_multicluster(config.clusters, lengths * np.asarray(config.direction), lam)
        header = ["d_over_lambda", "re", "im", "abs"]
        rows = [[f, v.real, v.imag, abs(v)] for f, v in zip(fractions, values.tolist())]
        return header, rows
    base = config.clusters[0]
    kappas = config.kappas if config.kappas is not None else (base.kappa,)
    betas = config.betas_deg if config.betas_deg is not None else (0.0,)
    header = ["kappa", "beta_deg", "d_over_lambda", "re", "im", "abs"]
    rows = []
    for kappa in kappas:
        cluster = VmfCluster(base.mu_phi, base.mu_psi, kappa, base.power)
        units = np.array([_beta_direction(cluster, math.radians(b)) for b in betas])
        values = scf(cluster, lengths * units[:, None, :], lam)
        for beta_deg, curve in zip(betas, values.tolist()):
            rows.extend(
                [kappa, beta_deg, f, v.real, v.imag, abs(v)] for f, v in zip(fractions, curve)
            )
    return header, rows


def _rows_scf_field(config: SweepConfig):
    lam = config.wavelength
    xs = config.x_grid.points()
    ys = config.y_grid.points()
    gx, gy = np.meshgrid(xs, ys)
    d = np.stack([gx * lam, gy * lam, np.zeros_like(gx)], axis=-1)
    values = scf_multicluster(config.clusters, d, lam)
    header = ["x_over_lambda", "y_over_lambda", "re", "im", "abs"]
    rows = [
        [x, y, v.real, v.imag, abs(v)]
        for y, line in zip(ys, values.tolist())
        for x, v in zip(xs, line)
    ]
    return header, rows


def _rows_acf_curve(config: SweepConfig):
    factor = 2.0 if config.monostatic else 1.0
    lags = config.dt_grid.points()
    d = (factor * lags)[:, None] * config.motion.velocity
    values = scf_multicluster(config.clusters, d, config.wavelength)
    header = ["dt_s", "re", "im", "abs"]
    rows = [[t, v.real, v.imag, abs(v)] for t, v in zip(lags, values.tolist())]
    return header, rows


def _rows_array_matrix(config: SweepConfig):
    matrix = correlation_matrix(config.geometry, config.clusters, config.wavelength)
    header = ["row", "col", "re", "im"]
    rows = [
        [i, k, v.real, v.imag]
        for i, line in enumerate(matrix.tolist())
        for k, v in enumerate(line)
    ]
    return header, rows


def _rows_array_path(config: SweepConfig):
    curve = scf_along_path(config.geometry, config.clusters, config.wavelength)
    header = ["s_over_lambda", "re", "im", "abs"]
    rows = [[s / config.wavelength, v.real, v.imag, abs(v)] for s, v in curve]
    return header, rows


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
    header = ["width_deg", "speed_kmh", "decorrelation_time_s"]
    rows = [
        [config.widths_deg[i], config.speeds_kmh[j], table[i, j]]
        for i in range(len(widths))
        for j in range(len(speeds))
    ]
    return header, rows


def _rows_validate(config: SweepConfig):
    lam = config.wavelength
    base = config.clusters[0]
    spec = QuadratureSpec(abs_tol=config.quad_abs_tol, rel_tol=config.quad_rel_tol)
    fractions = config.d_grid.points()
    lengths = (fractions * lam)[:, None]
    points = []
    for kappa in config.kappas:
        cluster = VmfCluster(base.mu_phi, base.mu_psi, kappa, base.power)
        units = np.array([_beta_direction(cluster, math.radians(b)) for b in config.betas_deg])
        ds = lengths * units[:, None, :]
        closed = scf(cluster, ds, lam).tolist()
        for b, beta_deg in enumerate(config.betas_deg):
            for f, fraction in enumerate(fractions):
                points.append((cluster, ds[b, f], [kappa, beta_deg, fraction], closed[b][f]))

    # the quadrature oracle is the one stage that runs faster on a thread pool
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        quads = list(pool.map(lambda p: scf_quadrature(p[0], p[1], lam, spec), points))
    rows = [
        key + [closed.real, closed.imag, quad.real, quad.imag, abs(closed - quad)]
        for (_, _, key, closed), quad in zip(points, quads)
    ]
    header = ["kappa", "beta_deg", "d_over_lambda", "closed_re", "closed_im",
              "quad_re", "quad_im", "abs_error"]
    return header, rows


_ROW_BUILDERS = {
    "scf-curve": _rows_scf_curve,
    "scf-field": _rows_scf_field,
    "acf-curve": _rows_acf_curve,
    "array-matrix": _rows_array_matrix,
    "array-path": _rows_array_path,
    "radar-table": _rows_radar_table,
    "validate": _rows_validate,
}


def _format_value(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_output(config: SweepConfig, header, rows):
    path = output_path(config)
    if config.format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_format_value(v) for v in row) + "\n")
    else:
        payload = {
            "mode": config.mode,
            "columns": list(header),
            "rows": [
                [int(v) if isinstance(v, (int, np.integer)) else float(v) for v in row]
                for row in rows
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")


def run(config: SweepConfig) -> int:
    """Evaluate the sweep and write the data file; returns the exit status."""
    header, rows = _ROW_BUILDERS[config.mode](config)
    _write_output(config, header, rows)
    if config.mode == "validate":
        kappa, beta_deg, fraction, *_, max_error = max(rows, key=lambda row: row[-1])
        print(
            f"validate: max |closed - quadrature| = {max_error:.3e} "
            f"over {len(rows)} points (tolerance {config.tolerance:g}) "
            f"at kappa={kappa:g} beta_deg={beta_deg:g} d_over_lambda={fraction:g}"
        )
        per_kappa = {}
        for row in rows:
            per_kappa[row[0]] = max(per_kappa.get(row[0], 0.0), row[-1])
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
        overrides = {}
        if args.out is not None:
            overrides["out"] = args.out
        if args.format is not None:
            overrides["format"] = args.format
        if overrides:
            config = replace(config, **overrides)
    except ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return run(config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
