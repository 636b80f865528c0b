"""Closed-form spatial and temporal correlation for vMF scattering channels."""

import math
from dataclasses import dataclass

import numpy as np

from .vmf import (
    _HALF_PI,
    TWO_PI,
    DomainError,
    VmfCluster,
    _direction_variances,
    _log_kappa_over_sinh,
    csinc_sqrt,
    direction_from_angles,
)

# Above this concentration sinh(kappa) no longer fits in a double, so the
# spatial correlation switches to the exponential form of _large_kappa_terms.
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


def _per_kappa(fn, kappa) -> np.ndarray:
    """fn of every entry of kappa, evaluated once per distinct concentration
    with Python's scalar math. numpy's exp, log and power round some
    arguments differently from math's, so this keeps every output
    equal, bit for bit, to the closed form with each cluster's constants
    taken as Python floats. Callers pass kappa before it is broadcast over
    displacements, so the Python work is per cluster or cell, not per point.
    fn sees only kappa > 0; kappa = 0, where no regime needs these constants,
    maps to 0."""
    distinct = sorted(set(np.ravel(kappa).tolist()))
    table = np.array([fn(k) if k > 0.0 else 0.0 for k in distinct], dtype=float)
    return table[np.searchsorted(distinct, kappa)]


def _split_k0(d: np.ndarray, wavelength: float):
    """(m, e, d 2^e) with 2 pi / lam = m 2^e by frexp. k0 d = m (d 2^e) exactly,
    so the kernel sees d / lam only: squares of d 2^e stay ordinary where k0 |d|
    is, and where k0^2 and |d|^2 are too, each product rounds as unscaled."""
    _check_wavelength(wavelength)
    m, e = math.frexp(TWO_PI / wavelength)
    return m, e, np.ldexp(d, e)


def _radicand_terms(kappa, mean, d: np.ndarray, wavelength: float):
    """(a, b, kappa^2, a + kappa^2 + 2 |b|) of the sinc radicand, with overflow to inf
    and nan left in place: a point is in the kernel's domain where the last is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        m, _, scaled = _split_k0(d, wavelength)
        a = (m * m) * _dot(scaled, scaled)
        b = kappa * m * _dot(scaled, np.asarray(mean, dtype=float))
        square = _per_kappa(lambda k: k**2 if k < 2.0**512 else math.inf, kappa)  # k**2 raises
        return a, b, square, a + square + 2.0 * np.abs(b)  # bounds every later step


def _domain_error(kappa: float, d, wavelength: float) -> DomainError:
    return DomainError(f"the radicand is not a finite double at kappa = {kappa:.6g}, "
                       f"|d| = {np.hypot.reduce(d) / wavelength:.6g} wavelengths")


def _radicand(kappa, mean, d: np.ndarray, wavelength: float) -> np.ndarray:
    """The sinc radicand w = a - kappa^2 - 2j b with a = (2 pi / lam)^2 |d|^2 and
    b = kappa (2 pi / lam) (mean . d), kappa (...) and mean (..., 3) broadcast against
    d (..., 3). DomainError, at the largest point, unless every a + kappa^2 + 2 |b| is finite."""
    a, b, square, size = _radicand_terms(kappa, mean, d, wavelength)
    if not np.isfinite(size).all():
        point = np.unravel_index(np.argmax(size), size.shape)  # a nan counts as largest
        raise _domain_error(np.broadcast_to(kappa, size.shape)[point],
                            np.broadcast_to(d, size.shape + (3,))[point], wavelength)
    return np.asarray(a - square - 2.0j * b)


def _large_kappa_terms(kappa, mean, d, w, wavelength: float, where=...):
    """(exponent, factor), R = exp(exponent) * factor, at the entries of w selected by
    where (all by default), with kappa, mean and d broadcast against w as in _radicand.

    With jz = sqrt(-w), Re jz >= 0, R = kappa e^(jz - kappa) (1 - e^(-2jz)) / jz, less
    sinh's 1 - e^(-2 kappa): the factor is at most 2 (2 at w = 0), so R underflows
    rather than overflow. As (jz)^2 = (kappa + j x_par)^2 - x_perp^2 for k0 d split
    along and across the mean, jz - kappa = j (x_par + x_perp^2 / (x_par - j (kappa + jz))),
    whose denominator adds terms of one sign in each part, so nothing cancels."""
    def pick(x):
        return np.broadcast_to(x, np.shape(w))[where]

    # split at every point, then picked: masking 3-vectors costs more than the rejection
    m, _, s = _split_k0(d, wavelength)
    mean = np.asarray(mean, dtype=float)
    along = _dot(s, mean)
    across = s - along[..., None] * mean  # the rejection of s from the mean
    x_par, x_perp2 = pick(m * along), pick((m * m) * _dot(across, across))
    jz = np.sqrt(-pick(w))
    exponent = (1j * (x_par + x_perp2 / (x_par - 1j * (pick(kappa) + jz)))
                + pick(_per_kappa(math.log, kappa)))
    factor = np.divide(1.0 - np.exp(-2.0 * jz), jz, out=np.full(jz.shape, 2.0 + 0j),
                       where=jz != 0.0)
    return exponent, factor


def _closed_form(kappa, mean, d, wavelength: float) -> np.ndarray:
    """The closed form over displacements d of shape (..., 3) in one pass, with
    kappa of shape (...) and mean directions of shape (..., 3) broadcast
    against them, so that one call can span clusters, concentrations or cells.

    _radicand first refuses the call with DomainError unless every point is in
    domain. Each regime is then one mask, taken per element: d = 0 gives exactly
    one, kappa = 0 the isotropic sinc, kappa above 700 the exponential form of
    _large_kappa_terms, and otherwise kappa / sinh(kappa) times csinc_sqrt's sin(z)/z.
    """
    d = _as_displacement(d, batch=True)
    kappa = np.asarray(kappa, dtype=float)
    w = _radicand(kappa, mean, d, wavelength)

    def spread(a):
        return np.broadcast_to(a, w.shape)

    value = np.ones(w.shape, dtype=complex)
    live = spread(np.any(d != 0.0, axis=-1))
    isotropic = live & (kappa == 0.0)
    large = live & (kappa > LARGE_KAPPA_THRESHOLD)
    moderate = live & ~isotropic & ~large
    if isotropic.any():
        (_, e, scaled), (m, e_lam) = _split_k0(d, wavelength), math.frexp(wavelength)
        x = np.ldexp(np.sqrt(_dot(scaled, scaled)) / m, -e - e_lam)  # |d| / lam, even past 1e308 m
        value[isotropic] = scf_isotropic(spread(x)[isotropic], 1.0)
    if large.any():
        exponent, factor = _large_kappa_terms(kappa, mean, d, w, wavelength, large)
        value[large] = np.exp(exponent) * factor
    if moderate.any():
        scale = spread(_per_kappa(lambda k: math.exp(_log_kappa_over_sinh(k)), kappa))
        value[moderate] = scale[moderate] * csinc_sqrt(w[moderate])
    return value


def scf_isotropic(distance, wavelength: float):
    """sinc(2 pi distance / wavelength), the uniform-scattering special case;
    a float for one distance, an array for an array of them."""
    _check_wavelength(wavelength)
    r = np.asarray(distance, dtype=float)
    if not np.all(np.isfinite(r) & (r >= 0.0)):
        raise ValueError(f"distance must be finite and >= 0, got {distance}")
    value = np.sinc(2.0 * (r / wavelength))  # 2 r overflows past 9e307 m, r / lam does not
    return float(value) if value.ndim == 0 else value


def scf(cluster: VmfCluster, d, wavelength: float):
    """Spatial correlation between two positions separated by displacement d.

    Equal to (kappa / sinh kappa) * sinc(sqrt(w)) with the radicand w = a - kappa^2 - 2j b,
    a = (2 pi / lam)^2 |d|^2 and b = kappa (2 pi / lam) (mean . d); kappa = 0 is the real
    isotropic result, kappa > 700 the exponential form of _large_kappa_terms, in which
    nothing cancels, d = 0 gives exactly one. DomainError where a + kappa^2 + 2 |b| is
    not a finite double. A 3-vector d gives a complex; an array of shape (..., 3) gives a
    complex array of shape (...).
    """
    value = _closed_form(cluster.kappa, cluster.mean_direction, d, wavelength)
    return value.item() if value.ndim == 0 else value


def scf_large_kappa(cluster: VmfCluster, d, wavelength: float):
    """scf times 1 - e^(-2 kappa), the one factor that the tight large-concentration
    form kappa e^(-kappa) e^(jz) (1 - e^(-2jz)) / (jz) drops from the closed form. The
    factor rounds to 1.0 from kappa ~ 18.7 on, where this is scf bit for bit.
    Requires kappa > 0; takes d of shape (3,) or (..., 3), like scf.
    """
    if cluster.kappa <= 0.0:
        raise ValueError("large-kappa evaluation requires kappa > 0")
    return scf(cluster, d, wavelength) * -math.expm1(-2.0 * cluster.kappa)


def scf_exact_log(cluster: VmfCluster, d, wavelength: float) -> complex:
    """scf at one displacement d of shape (3,), for kappa > 0 only."""
    value = scf(cluster, _as_displacement(d), wavelength)
    if cluster.kappa <= 0.0:
        raise ValueError("log-domain evaluation requires kappa > 0")
    return value


def scf_multicluster(clusters, d, wavelength: float):
    """Power-weighted mixture of per-cluster correlations; takes d like scf."""
    clusters = list(clusters)
    if not clusters:
        raise ValueError("cluster list must not be empty")
    total_power = sum(c.power for c in clusters)
    if abs(total_power - 1.0) > 1e-9:
        raise ValueError(f"cluster powers must sum to 1, got {total_power}")
    if len(clusters) == 1:
        # an scf call, which perfbench's tracer counts per branch
        values = [scf(clusters[0], d, wavelength)]
    else:
        # the cluster axis leads; each cluster's kappa and mean broadcast over d
        d = _as_displacement(d, batch=True)
        axes = (len(clusters),) + (1,) * (d.ndim - 1)
        kappa = np.reshape([c.kappa for c in clusters], axes)
        mean = np.reshape([c.mean_direction for c in clusters], (*axes, 3))
        values = _closed_form(kappa, mean, d, wavelength)
    total = sum(c.power * v for c, v in zip(clusters, values))
    return complex(total) if np.ndim(total) == 0 else total


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
    return scf(cluster, _lag_displacement(dt, motion.velocity, monostatic), wavelength)


def _lag_displacement(dt, velocity, monostatic: bool) -> np.ndarray:
    """velocity * dt over lags dt, doubled for monostatic operation. The
    doubling scales the velocity, so a lag past half the largest double
    still maps onto a finite displacement."""
    return dt[..., None] * ((2.0 if monostatic else 1.0) * velocity)


class DecorrelationNotFound(RuntimeError):
    """|ACF| stayed above the threshold over the whole search horizon."""


_GRID_POINTS_PER_DECADE = 64
# Lag grid columns of each cell evaluated by the scan's first kernel call, and
# by each later one, while scanning for first crossings
_FIRST_WINDOW = _GRID_POINTS_PER_DECADE // 2
_SCAN_WINDOW = 2 * _GRID_POINTS_PER_DECADE
# Fractions of a bracket evaluated per kernel call while refining a crossing
_SECTIONS = np.arange(1, 16) / 16


def _crossing_floor(kappa, mean, heading, f_m, threshold: float) -> np.ndarray:
    """Per cell, t0 = sqrt(2 (1 - threshold) / V) / (2 pi f_m): |ACF| > threshold on
    (0, t0). R is the characteristic function of k0 u.d over arrival directions
    u, so |ACF(t)| >= E cos(2 pi f_m t (u.h - E u.h)) >= 1 - (2 pi f_m t)^2 V / 2,
    with V = (mean.h)^2 Var(w) + |mean x h|^2 A / kappa the variance of u.h for
    the unit heading h; the cross product holds the transverse weight free of
    the cancellation in 1 - (mean.h)^2."""
    along, across = np.array([_direction_variances(k) for k in kappa.tolist()]).T
    transverse = np.cross(mean, heading)
    variance = _dot(mean, heading) ** 2 * along + _dot(transverse, transverse) * across
    return np.sqrt(2.0 * (1.0 - threshold) / variance) / (TWO_PI * f_m)


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
    points per decade starting at 1 us), scanned from the first lag past half
    of _crossing_floor's certified floor on the crossing, half a decade in the
    first kernel call and two decades in each later one, and refined to 1e-6
    relative, one sixteenth of the bracket per kernel call.
    Raises DecorrelationNotFound if no crossing occurs before the horizon, by
    default (10 + kappa / min(threshold, 0.5)) / f_m seconds as in decorrelation_table,
    10 / f_m at kappa = 0, past any radial crossing; DomainError where that default
    is not a positive finite double or a lag before the crossing is out of the
    kernel's domain.
    """
    times = _decorrelation_times([cluster], [motion], wavelength, monostatic, threshold, horizon)
    return float(times[0])


def _decorrelation_times(clusters, motions, wavelength: float, monostatic: bool,
                         threshold: float, horizon: float | None = None) -> np.ndarray:
    """decorrelation_time of each (cluster, motion) cell, searched up to
    horizon seconds, or up to each cell's default horizon when it is None.

    Each kernel call of the scan evaluates a window of grid columns for every
    cell that has not crossed yet, each cell's window its own: the first
    starts at the cell's first lag past half of _crossing_floor, before which
    its |ACF| is certified above the threshold, or else at its horizon, and
    covers half a decade (32 columns); each later one covers the next two
    decades (128 columns). A cell leaves at its first crossing. Where a call
    holds a lag out of the kernel's domain, only the lags in domain are
    evaluated, and the first cell with such a lag before its first crossing
    raises DomainError naming that lag. The cells are then refined
    together: one kernel call evaluates 15 evenly spaced lags inside the
    bracket of every live cell, which keeps the sixteenth that holds its
    first lag below the threshold (the last one where none is), and a cell
    leaves at its 1e-6 relative width. Each cell's rounds use its own bracket
    only, so a cell's time does not depend on the cells searched with it.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    _check_wavelength(wavelength)
    kappa = np.array([c.kappa for c in clusters])
    mean = np.array([c.mean_direction for c in clusters])
    speed = np.array([m.speed for m in motions])
    heading = np.array([direction_from_angles(m.phi_v, m.psi_v) for m in motions])
    velocity = speed[:, None] * heading
    default = horizon is None
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f_m = (2.0 if monostatic else 1.0) * speed / wavelength  # as doppler_params forms it
        if default:
            # |ACF| of a concentrated cluster decays over ~ sqrt(kappa) / f_m (transverse) up
            # to the radial kappa sqrt(1 / threshold^2 - 1) / (2 pi f_m), past the 10 / f_m of
            # broad scattering; cover both. An overflow, or f_m of 0 or inf, is out of domain.
            horizon = np.divide([10.0 + c.kappa / min(threshold, 0.5) for c in clusters], f_m)
        floor = _crossing_floor(kappa, mean, heading, f_m, threshold)
    horizon = np.broadcast_to(np.asarray(horizon, dtype=float), (len(clusters),))
    valid = np.isfinite(horizon) & (horizon > 0.0)
    if not valid.all():
        cell, error = np.argmin(valid), DomainError if default else ValueError
        raise error(f"horizon must be positive and finite, got {horizon[cell]:g} s at kappa = "
                    f"{clusters[cell].kappa:.6g}, speed = {motions[cell].speed:.6g} m/s")

    def excess(t, cells):
        d = _lag_displacement(t, velocity[cells], monostatic)
        return np.abs(_closed_form(kappa[cells], mean[cells], d, wavelength)) - threshold

    def below_in_domain(lags, scan):
        # a scan call refused a lag: evaluate only the lags in domain, and refuse
        # the first cell whose first lag out of domain comes before its first
        # crossing, naming that lag
        d = _lag_displacement(lags, velocity[scan, None], monostatic)
        valid = np.isfinite(_radicand_terms(kappa[scan, None], mean[scan, None], d, wavelength)[3])
        below = np.zeros(lags.shape, dtype=bool)
        below[valid] = excess(lags[valid], np.broadcast_to(scan[:, None], lags.shape)[valid]) < 0.0
        early = ~valid & ~np.logical_or.accumulate(below, axis=1)
        if early.any():
            row, col = np.argwhere(early)[0]
            raise _domain_error(kappa[scan[row]], d[row, col], wavelength)
        return below

    # Each row is min(1e-6, horizon / 64) times ratio^k as sequential products,
    # as cumprod forms them, up to the first product at or past the horizon,
    # which is clamped to it; the clamp also pads shorter rows with copies of
    # their horizon, which cannot come before a row's first crossing.
    ratio = 10.0 ** (1.0 / _GRID_POINTS_PER_DECADE)
    start = np.minimum(1e-6, horizon / _GRID_POINTS_PER_DECADE)
    count = int(np.ceil(np.max(np.log(horizon) - np.log(start)) / math.log(ratio))) + 2
    steps = np.full((len(kappa), count), ratio)
    steps[:, 0] = start
    with np.errstate(over="ignore"):  # an overflowed product is clamped to the horizon
        grid = np.minimum(np.cumprod(steps, axis=1), horizon[:, None])
    # each cell's scan starts at its first lag past half its floor, or else at its
    # horizon, the first column the clamp reaches
    past = (grid > 0.5 * floor[:, None]) | (grid == horizon[:, None])
    column = np.argmax(past, axis=1)  # the next column of each cell's scan
    cells = np.arange(len(kappa))
    first = np.zeros(len(kappa), dtype=int)
    searching = np.ones(len(kappa), dtype=bool)
    width = _FIRST_WINDOW
    while (scanning := searching & (column < count)).any():
        scan = cells[scanning]
        # each cell's own next columns, cut at the last column; a cell whose
        # window runs past it repeats it
        size = min(width, count - column[scan].min())
        cols = np.minimum(column[scan, None] + np.arange(size), count - 1)
        lags = grid[scan[:, None], cols]
        try:
            below = excess(lags, scan[:, None]) < 0.0
        except DomainError:
            below = below_in_domain(lags, scan)
        crossed = below.any(axis=1)
        first[scan[crossed]] = cols[crossed, np.argmax(below[crossed], axis=1)]
        searching[scan[crossed]] = False
        column[scan] += width
        width = _SCAN_WINDOW
    if searching.any():
        raise DecorrelationNotFound(
            f"|ACF| never fell below {threshold} within horizon "
            f"{float(horizon[np.argmax(searching)])} s"
        )
    hi = grid[cells, first]
    lo = np.where(first > 0, grid[cells, first - 1], 0.0)
    live = cells[hi - lo > 1e-6 * hi]
    while live.size:
        # the edges and 15 inner lags lo + (hi - lo) k / 16, finite past 9e307 s;
        # the first lag below the threshold (else hi) and the one before it bracket next
        a, b = lo[live, None], hi[live, None]
        edges = np.hstack([a, a + (b - a) * _SECTIONS, b])
        below = excess(edges[:, 1:-1], live[:, None]) < 0.0
        k = np.where(below.any(axis=1), np.argmax(below, axis=1) + 1, 16)
        lo[live], hi[live] = np.take_along_axis(edges, np.stack([k - 1, k], axis=1), axis=1).T
        live = live[hi[live] - lo[live] > 1e-6 * hi[live]]
    return 0.5 * lo + 0.5 * hi
