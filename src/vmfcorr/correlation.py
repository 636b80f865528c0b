"""Closed-form spatial and temporal correlation for vMF scattering channels."""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .vmf import (
    _HALF_PI,
    TWO_PI,
    VmfCluster,
    _log_kappa_over_sinh,
    csinc_sqrt,
    direction_from_angles,
)

# Above this concentration sinh(kappa) no longer fits in a double, so the
# spatial correlation switches to the log-domain large-kappa form.
LARGE_KAPPA_THRESHOLD = 700.0


@dataclass(frozen=True)
class MotionState:
    """Constant linear motion: speed in m/s plus direction angles in radians."""

    speed: float
    phi_v: float = 0.0
    psi_v: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.speed) and self.speed >= 0.0):
            raise ValueError(f"speed must be finite and >= 0, got {self.speed}")
        if not (math.isfinite(self.phi_v) and math.isfinite(self.psi_v)):
            raise ValueError("motion direction angles must be finite")
        if abs(self.psi_v) > _HALF_PI:
            raise ValueError(f"psi_v must lie in [-pi/2, pi/2], got {self.psi_v}")

    @property
    def velocity(self) -> np.ndarray:
        return self.speed * direction_from_angles(self.phi_v, self.psi_v)


@dataclass(frozen=True)
class DopplerParams:
    """Doppler shifts in Hz: f_m for the motion itself, f_mu for the mean
    arrival direction."""

    f_m: float
    f_mu: float

    def __post_init__(self):
        if abs(self.f_mu) > abs(self.f_m) * (1.0 + 1e-9) + 1e-300:
            raise ValueError("|f_mu| cannot exceed f_m")


def _as_displacement(d, batch: bool = False) -> np.ndarray:
    """d as a float array of shape (3,), or of shape (..., 3) when batch is set."""
    v = np.asarray(d, dtype=float)
    if batch and v.shape[-1:] != (3,):
        raise ValueError("displacements must be an array of shape (..., 3) in meters")
    if not batch and v.shape != (3,):
        raise ValueError("displacement must be a 3-vector in meters")
    if not np.all(np.isfinite(v)):
        raise ValueError("displacement components must be finite")
    return v


def _check_wavelength(wavelength: float):
    if not (math.isfinite(wavelength) and wavelength > 0.0):
        raise ValueError(f"wavelength must be positive, got {wavelength}")


def _dot(a, b):
    # summed in a fixed order, so an entry never depends on the batch around it
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _radicand(cluster: VmfCluster, d: np.ndarray, wavelength: float) -> np.ndarray:
    """Sinc radicand (2 pi / lam)^2 |d|^2 - kappa^2 - 2j kappa (2 pi / lam) (mean . d)
    over displacements of shape (..., 3)."""
    _check_wavelength(wavelength)
    k0 = TWO_PI / wavelength
    kappa = cluster.kappa
    return np.asarray(
        (k0 * k0) * _dot(d, d) - kappa**2 - 2.0j * kappa * k0 * _dot(d, cluster.mean_direction)
    )


def _branch_sqrt(w):
    """Square root with nonpositive imaginary part."""
    z = np.sqrt(w)
    return np.where(z.imag > 0.0, -z, z)


def _log_large_kappa(kappa: float, w: np.ndarray) -> np.ndarray:
    # log of kappa e^(-kappa) e^(jz) (1 - e^(-2jz)) / (jz), exponentiated only
    # at the end so the value underflows to zero rather than overflow; where
    # w = 0 the closed form is kappa / sinh(kappa) itself
    jz = 1j * _branch_sqrt(w)
    log_value = np.full(jz.shape, _log_kappa_over_sinh(kappa), dtype=complex)
    nonzero = jz != 0.0
    jz = jz[nonzero]
    log_jz = math.log(kappa) - kappa + jz - np.log(jz)
    # e^(-2jz) is O(1) where z is near real and underflows to exactly 0 once
    # Re(jz) = -Im z exceeds 373, so only the points below that need the term
    near = jz.real < 373.0
    if near.any():
        log_jz[near] += np.log1p(-np.exp(-2.0 * jz[near]))
    log_value[nonzero] = log_jz
    return log_value


def _closed_form(cluster: VmfCluster, d, wavelength: float) -> np.ndarray:
    """The closed form over displacements of shape (..., 3) in one pass.

    Each regime is one mask: d = 0 gives exactly one, kappa = 0 the isotropic
    sinc, kappa above the sinh overflow threshold the log-domain large-kappa
    form, and otherwise csinc_sqrt splits its series and direct sin(z)/z.
    """
    d = _as_displacement(d, batch=True)
    w = _radicand(cluster, d, wavelength)
    kappa = cluster.kappa
    value = np.ones(w.shape, dtype=complex)
    live = np.any(d != 0.0, axis=-1)
    if kappa == 0.0:
        value[live] = scf_isotropic(np.sqrt(_dot(d, d))[live], wavelength)
    elif kappa > LARGE_KAPPA_THRESHOLD:
        value[live] = np.exp(_log_large_kappa(kappa, w[live]))
    else:
        value[live] = math.exp(_log_kappa_over_sinh(kappa)) * csinc_sqrt(w[live])
    return value


def scf_isotropic(distance, wavelength: float):
    """sinc(2 pi distance / wavelength), the uniform-scattering special case;
    a float for one distance, an array for an array of them."""
    _check_wavelength(wavelength)
    r = np.asarray(distance, dtype=float)
    if not np.all(np.isfinite(r) & (r >= 0.0)):
        raise ValueError(f"distance must be finite and >= 0, got {distance}")
    value = np.sinc(2.0 * r / wavelength)
    return float(value) if value.ndim == 0 else value


def scf(cluster: VmfCluster, d, wavelength: float):
    """Spatial correlation between two positions separated by displacement d.

    Equal to (kappa / sinh kappa) * sinc(sqrt(w)) with the radicand
    w = (2 pi / lam)^2 |d|^2 - kappa^2 - 2j kappa (2 pi / lam) (mean . d).
    kappa = 0 reduces to the real isotropic result, and concentrations beyond
    the sinh overflow threshold are routed to the log-domain large-kappa form.
    The value at d = 0 is exactly one. A 3-vector d gives a complex; an array
    of shape (..., 3) gives a complex array of shape (...).
    """
    value = _closed_form(cluster, d, wavelength)
    return value.item() if value.ndim == 0 else value


def scf_large_kappa(cluster: VmfCluster, d, wavelength: float):
    """Tight large-concentration form kappa e^(-kappa) e^(jz) (1 - e^(-2jz)) / (jz).

    z is the square root of the sinc radicand taken with nonpositive imaginary
    part, which keeps the dominant exponentials of sinh and sin paired; the
    whole expression is assembled in the exponent, so nothing overflows for
    kappa up to ~1e6. The e^(-2jz) term keeps sin z whole where z is near
    real (transverse displacements with k0 |d| >= kappa); the one factor
    dropped is 1 - e^(-2 kappa), a relative error below 1e-600 above
    kappa = 700. Takes d of shape (3,) or (..., 3), like scf.
    """
    if cluster.kappa <= 0.0:
        raise ValueError("large-kappa evaluation requires kappa > 0")
    d = _as_displacement(d, batch=True)
    value = np.exp(_log_large_kappa(cluster.kappa, _radicand(cluster, d, wavelength)))
    return value.item() if value.ndim == 0 else value


def scf_exact_log(cluster: VmfCluster, d, wavelength: float) -> complex:
    """Overflow-safe exact evaluation, equal to scf for any kappa > 0.

    Keeps every term of the sinh/sin ratio in the exponent, including the
    1 - e^(-2jz) and 1 - e^(-2 kappa) corrections that the large-kappa form
    drops; serves as the cross-check target for that approximation.
    """
    kappa = cluster.kappa
    radicand = complex(_radicand(cluster, _as_displacement(d), wavelength))
    if kappa <= 0.0:
        raise ValueError("log-domain evaluation requires kappa > 0")
    if abs(radicand) <= 0.25:
        return math.exp(_log_kappa_over_sinh(kappa)) * csinc_sqrt(radicand)
    jz = 1j * complex(_branch_sqrt(radicand))
    log_value = (
        math.log(kappa)
        - kappa
        - math.log1p(-math.exp(-2.0 * kappa))
        + jz
        - cmath.log(jz)
        + cmath.log(1.0 - cmath.exp(-2.0 * jz))
    )
    return cmath.exp(log_value)


def scf_multicluster(clusters, d, wavelength: float):
    """Power-weighted mixture of per-cluster correlations; takes d like scf."""
    clusters = list(clusters)
    if not clusters:
        raise ValueError("cluster list must not be empty")
    total_power = sum(c.power for c in clusters)
    if abs(total_power - 1.0) > 1e-9:
        raise ValueError(f"cluster powers must sum to 1, got {total_power}")
    return sum(c.power * scf(c, d, wavelength) for c in clusters)


def doppler_params(
    cluster: VmfCluster, motion: MotionState, wavelength: float, monostatic: bool = False
) -> DopplerParams:
    """Doppler shifts of the motion: f_m = speed / wavelength and the shift of
    the mean arrival direction f_mu = (mean . velocity) / wavelength, both
    doubled for round-trip (monostatic) operation."""
    _check_wavelength(wavelength)
    factor = 2.0 if monostatic else 1.0
    f_m = factor * motion.speed / wavelength
    f_mu = factor * float(cluster.mean_direction @ motion.velocity) / wavelength
    return DopplerParams(f_m=f_m, f_mu=f_mu)


def acf(
    cluster: VmfCluster, motion: MotionState, dt, wavelength: float, monostatic: bool = False
):
    """Temporal correlation at lag dt under constant linear motion.

    The lag maps onto the spatial displacement velocity * dt, doubled for
    monostatic operation where path lengths change twice as fast. An array of
    lags gives an array of correlations of the same shape.
    """
    dt = np.asarray(dt, dtype=float)
    if not np.all(np.isfinite(dt)):
        raise ValueError(f"time lag must be finite, got {dt}")
    factor = 2.0 if monostatic else 1.0
    return scf(cluster, (factor * dt)[..., None] * motion.velocity, wavelength)


class DecorrelationNotFound(RuntimeError):
    """|ACF| stayed above the threshold over the whole search horizon."""


_GRID_POINTS_PER_DECADE = 64


def decorrelation_time(
    cluster: VmfCluster,
    motion: MotionState,
    wavelength: float,
    monostatic: bool = False,
    threshold: float = 0.5,
    horizon: float | None = None,
) -> float:
    """Smallest positive lag at which |ACF| first falls to the threshold.

    The first downward crossing is bracketed on a geometric lag grid (64
    points per decade starting at 1 us) and refined by bisection to 1e-6
    relative. Raises DecorrelationNotFound if no crossing occurs before the
    horizon, which defaults to 10 / f_m.
    """
    if motion.speed <= 0.0:
        raise ValueError("decorrelation time requires speed > 0")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    params = doppler_params(cluster, motion, wavelength, monostatic)
    if horizon is None:
        horizon = 10.0 / params.f_m
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive, got {horizon}")

    def excess(t):
        return np.abs(acf(cluster, motion, t, wavelength, monostatic)) - threshold

    # one call over the whole geometric grid; its points are sequential
    # products, so the bracket does not depend on how the grid is evaluated
    ratio = 10.0 ** (1.0 / _GRID_POINTS_PER_DECADE)
    grid = [min(1e-6, horizon / _GRID_POINTS_PER_DECADE)]
    while grid[-1] < horizon:
        grid.append(min(grid[-1] * ratio, horizon))
    below = np.flatnonzero(excess(np.array(grid)) < 0.0)
    if below.size == 0:
        raise DecorrelationNotFound(
            f"|ACF| never fell below {threshold} within horizon {horizon} s"
        )
    first = int(below[0])
    lo = grid[first - 1] if first else 0.0
    hi = grid[first]
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
