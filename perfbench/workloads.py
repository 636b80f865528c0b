"""The benchmark's workloads: the jobs of each one, generated from a seed.

A job is either a CLI sweep (a JSON config that the worker feeds to
`vmfcorr.cli.parse_config` and `vmfcorr.cli.run`) or one point of the
Monte-Carlo oracle (`vmfcorr.oracles.scf_montecarlo`). The seed draws only
cluster mean directions, cluster powers and Monte-Carlo seeds; sizes and the
set of concentrations are fixed, so every seed reaches the same dispatch
branches and does the same amount of work.

Configs use the mode keys plus `mode`, `out` and `format`. They leave out
`threads` and `seed`, which the CLI is expected to drop, because an unknown
key is a config error.
"""

import json
import math
import random

WORKLOADS = ("bulk-sweep", "radar-chain", "oracles")
SIZES = ("full", "tiny")

WAVELENGTH = 0.1

# (full, tiny) sizes; the full ones are the benchmark's, the tiny ones only
# exercise the harness.
_FIELD_POINTS = (100, 4)
_PLANAR_SIDE = (16, 3)
_CURVE_DISTANCES = (121, 5)
_ACF_LAGS = (2000, 12)
_PATH_ELEMENTS = (401, 9)
_RADAR_WIDTHS = ((4.0, 2.0, 1.0, 0.5, 0.25), (0.5, 4.0))
_RADAR_SPEEDS = ((300.0, 150.0, 80.0, 40.0, 10.0), (40.0, 300.0))
_MC_REALIZATIONS = (10_000, 100)
_MC_PATHS = (64, 10)

CURVE_KAPPAS = (0.0, 1.0, 10.0, 100.0, 1000.0, 1e5)
CURVE_BETAS = (0.0, 45.0, 90.0)


def _direction(rng):
    # uniform on the sphere: azimuth uniform, sine of elevation uniform
    phi = rng.uniform(-180.0, 180.0)
    psi = math.degrees(math.asin(rng.uniform(-1.0, 1.0)))
    return round(phi, 6), round(psi, 6)


def _clusters(rng, kappas):
    first = round(rng.uniform(0.2, 0.8), 6)
    powers = (first, round(1.0 - first, 6)) if len(kappas) == 2 else (1.0,)
    blocks = []
    for kappa, power in zip(kappas, powers):
        phi, psi = _direction(rng)
        blocks.append({"kappa": kappa, "mu_phi_deg": phi, "mu_psi_deg": psi, "power": power})
    return blocks


def _unit(phi_deg, psi_deg):
    phi, psi = math.radians(phi_deg), math.radians(psi_deg)
    return (math.cos(phi) * math.cos(psi), math.sin(phi) * math.cos(psi), math.sin(psi))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _displacement(mean, beta_deg, length):
    """Vector of the given length at polar angle beta from the mean direction."""
    helper = (0.0, 0.0, 1.0) if abs(mean[2]) < 0.9 else (1.0, 0.0, 0.0)
    tangent = _cross(helper, mean)
    norm = math.sqrt(sum(c * c for c in tangent))
    tangent = tuple(c / norm for c in tangent)
    beta = math.radians(beta_deg)
    return [length * (math.cos(beta) * m + math.sin(beta) * t) for m, t in zip(mean, tangent)]


def _cli(name, config):
    return {"name": name, "kind": "cli", "config": config}


def _bulk_sweep(rng, s, out):
    n_field = _FIELD_POINTS[s]
    n_side = _PLANAR_SIDE[s]
    field_grid = {"start": -2.0, "stop": 2.0, "count": n_field}
    curve_phi, curve_psi = _direction(rng)
    return [
        _cli("scf-field", {
            "mode": "scf-field", "out": out("scf-field.csv"), "wavelength": WAVELENGTH,
            "clusters": _clusters(rng, (4.0, 40.0)),
            "x_over_lambda": field_grid, "y_over_lambda": field_grid,
        }),
        _cli("array-matrix", {
            "mode": "array-matrix", "out": out("array-matrix.csv"), "wavelength": WAVELENGTH,
            "clusters": _clusters(rng, (20.0,)),
            "geometry": {"kind": "planar", "nx": n_side, "ny": n_side,
                         "dx_over_lambda": 0.5, "dy_over_lambda": 0.5},
        }),
        _cli("scf-curve", {
            "mode": "scf-curve", "out": out("scf-curve.csv"), "wavelength": WAVELENGTH,
            "cluster": {"mu_phi_deg": curve_phi, "mu_psi_deg": curve_psi},
            "kappas": list(CURVE_KAPPAS), "betas_deg": list(CURVE_BETAS),
            "d_over_lambda": {"start": 0.0, "stop": 3.0, "count": _CURVE_DISTANCES[s]},
        }),
        _cli("acf-curve", {
            "mode": "acf-curve", "out": out("acf-curve.json"), "format": "json",
            "carrier_frequency_hz": 2.4e9, "clusters": _clusters(rng, (10.0, 200.0)),
            "motion": {"speed_mps": 30.0, "phi_v_deg": 0.0, "psi_v_deg": 0.0},
            "dt_s": {"start": 0.0, "stop": 0.05, "count": _ACF_LAGS[s]},
        }),
        _cli("array-path", {
            "mode": "array-path", "out": out("array-path.csv"), "wavelength": WAVELENGTH,
            "clusters": _clusters(rng, (1.0, 500.0)),
            "geometry": {"kind": "circular", "n": _PATH_ELEMENTS[s], "radius_over_lambda": 8.0},
        }),
    ]


def _radar_chain(rng, s, out):
    # The radar table has no cluster of its own to draw: every seed runs the
    # same table.
    return [
        _cli("radar-table", {
            "mode": "radar-table", "out": out("radar-table.csv"),
            "carrier_frequency_hz": 1e10, "elevation_deg": 20.0, "monostatic": True,
            "widths_deg": list(_RADAR_WIDTHS[s]), "speeds_kmh": list(_RADAR_SPEEDS[s]),
        }),
    ]


def _oracles(rng, s, out):
    validate = {"mode": "validate", "out": out("validate.csv")}
    if s:
        validate.update(kappas=[0.0, 10.0], betas_deg=[30.0],
                        d_over_lambda={"start": 0.0, "stop": 1.0, "count": 3})
    jobs = [_cli("validate", validate)]
    for index, (kappa, beta_deg, d_over_lambda) in enumerate(((10.0, 30.0, 0.5),
                                                               (100.0, 60.0, 0.2))):
        phi, psi = _direction(rng)
        jobs.append({
            "name": f"scf-montecarlo-{index}", "kind": "montecarlo",
            "cluster": {"kappa": kappa, "mu_phi_deg": phi, "mu_psi_deg": psi},
            "d": _displacement(_unit(phi, psi), beta_deg, d_over_lambda * WAVELENGTH),
            "wavelength": WAVELENGTH, "n_paths": _MC_PATHS[s],
            "n_realizations": _MC_REALIZATIONS[s], "seed": rng.randrange(2**32),
        })
    return jobs


_BUILDERS = {"bulk-sweep": _bulk_sweep, "radar-chain": _radar_chain, "oracles": _oracles}


def make_jobs(workload: str, seed: int, out_dir: str, size: str = "full") -> list:
    """The workload's jobs for a seed; CLI jobs write their data files into
    out_dir. Each CLI job carries its config both as a dict and as JSON text."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng, SIZES.index(size), lambda name: f"{out_dir}/{name}")
    for job in jobs:
        if job["kind"] == "cli":
            job["text"] = json.dumps(job["config"])
    return jobs
