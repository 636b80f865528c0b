"""Output checks against an independent 40-digit reference (mpmath).

The reference evaluates R = (kappa / sinh kappa) sinc(sqrt(w)) with
w = (k0 |d|)^2 - kappa^2 - 2j kappa k0 (mean . d), built from the job's own
inputs: degrees, wavelength fractions and grid definitions, never from the
library's intermediate vectors. Closed-form outputs must agree within
ABS_TOL at every checked point. The seed commit's worst point is about
2e-11 (kappa 1e5, beta 45 deg, d = 1.55 lambda), so the bound leaves room
for rounding yet fails on a conjugated result or a dispatch branch that is
wrong where it matters.

`check(job, output)` returns None when the output passes, or a message.
"""

import csv
import io
import json
import math
import random

import mpmath as mp

mp.mp.dps = 40

ABS_TOL = 1e-9
MC_SIGMAS = 4.0
# A bisected decorrelation time lies within 1e-6 of the crossing, relatively.
RADAR_BRACKET = 2e-6
FIELD_SAMPLE = 2000
SPEED_OF_LIGHT = 299_792_458.0


def scf_reference(kappa, k0d_sq, k0_mean_dot_d):
    """Closed form from kappa, (k0 |d|)^2 and k0 (mean . d), all mp numbers."""
    kappa = mp.mpf(kappa)
    if k0d_sq == 0:
        return mp.mpc(1)
    w = k0d_sq - kappa * kappa - 2j * kappa * k0_mean_dot_d
    scale = mp.mpf(1) if kappa == 0 else kappa / mp.sinh(kappa)
    if w == 0:
        return mp.mpc(scale)
    z = mp.sqrt(w)
    return scale * mp.sin(z) / z


def _unit(phi_deg, psi_deg):
    phi, psi = mp.radians(mp.mpf(phi_deg)), mp.radians(mp.mpf(psi_deg))
    return (mp.cos(phi) * mp.cos(psi), mp.sin(phi) * mp.cos(psi), mp.sin(psi))


def _mixture(clusters, d_over_lambda):
    """Power-weighted closed form at displacement d_over_lambda (mp 3-vector)."""
    k0d = [2 * mp.pi * c for c in d_over_lambda]
    k0d_sq = sum(c * c for c in k0d)
    total = mp.mpc(0)
    for block in clusters:
        mean = _unit(block.get("mu_phi_deg", 0.0), block.get("mu_psi_deg", 0.0))
        total += mp.mpf(block.get("power", 1.0)) * scf_reference(
            block["kappa"], k0d_sq, sum(m * c for m, c in zip(mean, k0d)))
    return total


def _grid(block):
    start, stop, count = (mp.mpf(block["start"]), mp.mpf(block["stop"]), block["count"])
    if count == 1:
        return [start]
    return [start + (stop - start) * i / (count - 1) for i in range(count)]


def _csv(data: bytes):
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader)
    return header, [[float(v) for v in row] for row in reader]


def _expect(condition, message):
    if not condition:
        raise AssertionError(message)


def _close(value, reference, where):
    error = abs(mp.mpc(value) - reference)
    _expect(error <= ABS_TOL, f"{where}: |value - reference| = {float(error):.3e} > {ABS_TOL:g}")


def _same_inputs(got, expected, where):
    _expect(len(got) == len(expected), f"{where}: {len(got)} rows, expected {len(expected)}")
    for g, e in zip(got, expected):
        _expect(all(abs(a - float(b)) <= 1e-9 * (1.0 + abs(a)) for a, b in zip(g, e)),
                f"{where}: row inputs {g} differ from expected {[float(b) for b in e]}")


def _check_scf_curve(config, data):
    _, rows = _csv(data)
    fractions = _grid(config["d_over_lambda"])
    expected = [(k, b, f) for k in config["kappas"] for b in config["betas_deg"] for f in fractions]
    _same_inputs([r[:3] for r in rows], expected, "scf-curve")
    cosines = {b: mp.cos(mp.radians(mp.mpf(b))) for b in config["betas_deg"]}
    for (kappa, beta, f), row in zip(expected, rows):
        x = 2 * mp.pi * f
        _close(complex(row[3], row[4]), scf_reference(kappa, x * x, x * cosines[beta]),
               f"scf-curve kappa={kappa} beta={beta} d={float(f):g}")


def _check_scf_field(config, data, rng):
    _, rows = _csv(data)
    xs, ys = _grid(config["x_over_lambda"]), _grid(config["y_over_lambda"])
    expected = [(x, y) for y in ys for x in xs]
    _same_inputs([r[:2] for r in rows], expected, "scf-field")
    for row in rows:
        _expect(abs(complex(row[2], row[3])) <= 1.0 + 1e-12, f"scf-field: |R| > 1 at {row[:2]}")
    picks = range(len(rows)) if len(rows) <= FIELD_SAMPLE else rng.sample(range(len(rows)),
                                                                          FIELD_SAMPLE)
    for i in picks:
        x, y = expected[i]
        _close(complex(rows[i][2], rows[i][3]), _mixture(config["clusters"], (x, y, 0)),
               f"scf-field x={float(x):g} y={float(y):g}")


def _check_array_matrix(config, data):
    _, rows = _csv(data)
    g = config["geometry"]
    nx, ny = g["nx"], g["ny"]
    n = nx * ny
    _same_inputs([r[:2] for r in rows], [(i, k) for i in range(n) for k in range(n)],
                 "array-matrix")
    cache = {}
    dx, dy = mp.mpf(g["dx_over_lambda"]), mp.mpf(g["dy_over_lambda"])
    for row in rows:
        i, k = int(row[0]), int(row[1])
        offset = (k % nx - i % nx, k // nx - i // nx)
        if offset not in cache:
            cache[offset] = _mixture(config["clusters"], (offset[0] * dx, offset[1] * dy, 0))
        _close(complex(row[2], row[3]), cache[offset], f"array-matrix ({i}, {k})")


def _check_array_path(config, data):
    _, rows = _csv(data)
    n = config["geometry"]["n"]
    radius = mp.mpf(config["geometry"]["radius_over_lambda"])
    angles = sorted(2 * mp.pi * j / n - (2 * mp.pi if 2 * j >= n else 0) for j in range(n))
    _expect(len(rows) == n, f"array-path: {len(rows)} rows, expected {n}")
    for angle, row in zip(angles, rows):
        d = (radius * mp.sin(angle), radius * (1 - mp.cos(angle)), 0)
        _close(complex(row[1], row[2]), _mixture(config["clusters"], d),
               f"array-path angle={float(angle):g}")


def _check_acf_curve(config, data):
    rows = json.loads(data)["rows"]
    lags = _grid(config["dt_s"])
    _same_inputs([r[:1] for r in rows], [(t,) for t in lags], "acf-curve")
    motion = config["motion"]
    wavelength = mp.mpf(SPEED_OF_LIGHT) / mp.mpf(config["carrier_frequency_hz"])
    direction = _unit(motion["phi_v_deg"], motion["psi_v_deg"])
    factor = 2 if config.get("monostatic") else 1
    for t, row in zip(lags, rows):
        step = factor * t * mp.mpf(motion["speed_mps"]) / wavelength
        _close(complex(row[1], row[2]), _mixture(config["clusters"], [step * c for c in direction]),
               f"acf-curve dt={float(t):g}")


def radar_abs_acf(config, width_deg, speed_kmh, dt):
    """|ACF| of the radar return at lag dt, for one cell of the table."""
    kappa = 2 / (1 - mp.cos(mp.radians(mp.mpf(width_deg)) / 2))
    elevation = mp.radians(mp.mpf(config.get("elevation_deg", 0.0)))
    azimuth = mp.pi + mp.radians(mp.mpf(config.get("motion_azimuth_deg", 0.0)))
    k0 = 2 * mp.pi * mp.mpf(config["carrier_frequency_hz"]) / SPEED_OF_LIGHT
    factor = 2 if config.get("monostatic", True) else 1
    step = k0 * factor * mp.mpf(dt) * mp.mpf(speed_kmh) / mp.mpf(3.6)
    mean_dot_v = mp.cos(elevation) * mp.cos(azimuth)
    return abs(scf_reference(kappa, step * step, step * mean_dot_v))


def _check_radar_table(config, data):
    _, rows = _csv(data)
    expected = [(w, v) for w in config["widths_deg"] for v in config["speeds_kmh"]]
    _same_inputs([r[:2] for r in rows], expected, "radar-table")
    threshold = config.get("threshold", 0.5)
    for width, speed, t in rows:
        before = radar_abs_acf(config, width, speed, t * (1 - RADAR_BRACKET))
        after = radar_abs_acf(config, width, speed, t * (1 + RADAR_BRACKET))
        _expect(t > 0 and before >= threshold > after,
                f"radar-table {width:g} deg {speed:g} km/h: t = {t:.9g} s does not bracket a "
                f"crossing (|ACF| {float(before):.9f} -> {float(after):.9f})")


def _check_validate(config, data):
    _, rows = _csv(data)
    tolerance = config.get("tolerance", 1e-8)
    kappas = config.get("kappas", [0.0, 1.0, 10.0, 100.0])
    betas = config.get("betas_deg", [0.0, 30.0, 60.0, 90.0])
    fractions = _grid(config.get("d_over_lambda", {"start": 0.0, "stop": 3.0, "count": 13}))
    expected = [(k, b, f) for k in kappas for b in betas for f in fractions]
    _same_inputs([r[:3] for r in rows], expected, "validate")
    for (kappa, beta, f), row in zip(expected, rows):
        x = 2 * mp.pi * f
        reference = scf_reference(kappa, x * x, x * mp.cos(mp.radians(mp.mpf(beta))))
        where = f"validate kappa={kappa} beta={beta} d={float(f):g}"
        _close(complex(row[3], row[4]), reference, where)
        _expect(row[7] <= tolerance, f"{where}: reported error {row[7]:.3e} > {tolerance:g}")
        quad_error = abs(mp.mpc(complex(row[5], row[6])) - reference)
        _expect(quad_error <= tolerance, f"{where}: quadrature off by {float(quad_error):.3e}")


def _check_montecarlo(job, value):
    re, im, std_error = value
    cluster = job["cluster"]
    mean = _unit(cluster["mu_phi_deg"], cluster["mu_psi_deg"])
    k0d = [2 * mp.pi * mp.mpf(c) / mp.mpf(job["wavelength"]) for c in job["d"]]
    reference = scf_reference(cluster["kappa"], sum(c * c for c in k0d),
                              sum(m * c for m, c in zip(mean, k0d)))
    pull = float(abs(mp.mpc(re, im) - reference)) / std_error if std_error > 0 else math.inf
    _expect(pull <= MC_SIGMAS, f"{job['name']}: estimate is {pull:.2f} standard errors "
                               f"from the closed form (limit {MC_SIGMAS:g})")


_CLI_CHECKS = {
    "scf-curve": _check_scf_curve,
    "array-matrix": _check_array_matrix,
    "array-path": _check_array_path,
    "acf-curve": _check_acf_curve,
    "radar-table": _check_radar_table,
    "validate": _check_validate,
}


def check(job, output, seed=0):
    """None if the job's output is correct, else a message. output is the
    data file's bytes for a CLI job, or [re, im, std_error] for a
    Monte-Carlo job."""
    try:
        if job["kind"] == "montecarlo":
            _check_montecarlo(job, output)
        elif job["config"]["mode"] == "scf-field":
            _check_scf_field(job["config"], output, random.Random(seed))
        else:
            _CLI_CHECKS[job["config"]["mode"]](job["config"], output)
    except AssertionError as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{job['name']}: malformed output ({type(exc).__name__}: {exc})"
    return None
