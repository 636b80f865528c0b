"""Temporal fluctuation of the radar return from a moving extended target.

The target is represented as a cluster of scatterers whose concentration
follows from its apparent angular width, so the temporal correlation of the
received signal reduces to the channel autocorrelation under the relative
target motion, with Doppler doubled for monostatic operation.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .correlation import MotionState, _decorrelation_times, acf
from .vmf import _HALF_PI, VmfCluster, direction_from_angles, kappa_from_angular_width

SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class RadarScenario:
    """Moving extended target seen by a radar.

    The target sits at target_elevation (radians) above the horizon with an
    apparent angular size of target_angular_width, and moves horizontally at
    target_speed; motion_azimuth is the angle between the horizontal
    line-of-sight direction pointing away from the radar and the velocity
    (0 means directly receding).
    """

    carrier_frequency: float
    target_elevation: float
    target_angular_width: float
    target_speed: float
    motion_azimuth: float = 0.0
    monostatic: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.carrier_frequency) and self.carrier_frequency > 0.0):
            raise ValueError(f"carrier frequency must be positive, got {self.carrier_frequency}")
        if not abs(self.target_elevation) <= _HALF_PI:  # also refuses NaN
            raise ValueError(
                f"target elevation must lie in [-pi/2, pi/2], got {self.target_elevation}"
            )
        if not 0.0 < self.target_angular_width < math.pi:
            raise ValueError(
                f"target angular width must lie in (0, pi), got {self.target_angular_width}"
            )
        if not (math.isfinite(self.target_speed) and self.target_speed >= 0.0):
            raise ValueError(f"target speed must be >= 0, got {self.target_speed}")
        if not math.isfinite(self.motion_azimuth):
            raise ValueError("motion azimuth must be finite")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency


def scenario_to_cluster_and_motion(scenario: RadarScenario) -> tuple[VmfCluster, MotionState, float]:
    """Map a radar scenario onto the cluster and motion primitives.

    The mean arrival direction points from the radar toward the target, and
    the target's velocity enters as the opposite relative motion, so a
    receding target yields a negative mean Doppler shift.
    """
    kappa = kappa_from_angular_width(scenario.target_angular_width)
    cluster = VmfCluster(mu_phi=0.0, mu_psi=scenario.target_elevation, kappa=kappa)
    motion = MotionState(
        speed=scenario.target_speed,
        phi_v=math.pi + scenario.motion_azimuth,
        psi_v=0.0,
    )
    return cluster, motion, scenario.wavelength


def radar_acf_curve(scenario: RadarScenario, dt_grid) -> list[tuple[float, float]]:
    """|ACF| of the received signal over the given lag grid (sorted, >= 0)."""
    grid = np.asarray(dt_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("lag grid must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(grid)) or grid[0] < 0.0 or np.any(np.diff(grid) < 0.0):
        raise ValueError("lag grid must be sorted and nonnegative")
    cluster, motion, wavelength = scenario_to_cluster_and_motion(scenario)
    values = acf(cluster, motion, grid, wavelength, scenario.monostatic)
    return [(float(t), abs(v)) for t, v in zip(grid, values.tolist())]


def decorrelation_table(widths, speeds, base: RadarScenario, threshold: float = 0.5) -> np.ndarray:
    """Decorrelation time in seconds for every (angular width, speed) pair.

    Each entry equals decorrelation_time for its cell at its default horizon,
    bit for bit. Each width and speed is checked once, as the cells' scenarios
    and conversions would, so the first refused cell in row-major order names
    the error; the search then takes arrays of the cells' concentrations and
    speeds, with the table's one mean direction and heading. It searches each
    width once, in wavelengths travelled, and divides by each speed's f_m."""
    widths, speeds = list(widths), list(speeds)
    if not widths or not speeds:
        raise ValueError("width and speed lists must not be empty")
    kappas = []  # each cell's scenario checks width, then speed; its conversion forms kappa
    for row, width in enumerate(widths):
        replace(base, target_angular_width=width, target_speed=speeds[0])
        kappas.append(kappa_from_angular_width(width))
        for speed in speeds[1:] if row == 0 else ():
            replace(base, target_speed=speed)
    mean = direction_from_angles(0.0, base.target_elevation)
    heading = direction_from_angles(math.pi + base.motion_azimuth, 0.0)
    times = _decorrelation_times(np.repeat(kappas, len(speeds)), np.tile(speeds, len(widths)),
                                 mean, heading, base.wavelength, base.monostatic, threshold)
    return times.reshape(len(widths), len(speeds))
