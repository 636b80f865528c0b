"""Closed-form spatial and temporal correlation for vMF scattering channels."""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .vmf import (
    _HALF_PI,
    TWO_PI,
    DomainError,
    VmfCluster,
    _direction_variances,
    _log_normaliser,
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
    if not np.isfinite(v).all():
        raise ValueError("displacement components must be finite")
    return v


def _check_wavelength(wavelength: float):
    if not (math.isfinite(wavelength) and wavelength > 0.0):
        raise ValueError(f"wavelength must be positive, got {wavelength}")


def _dot(a, b):
    # summed in a fixed order, so an entry never depends on the batch around it
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _per_kappa(fn, kappa) -> np.ndarray:
    """The tuple fn(k) at every entry k of kappa, shape (len(fn(k)),) + kappa.shape, once
    per distinct concentration in Python's scalar math, whose exp, log and power round
    some arguments unlike numpy's: outputs are the closed form with Python-float constants."""
    distinct = sorted(set(np.ravel(kappa).tolist())) or [0.0]  # columns even when empty
    return np.array([fn(k) for k in distinct], dtype=float).T[:, np.searchsorted(distinct, kappa)]


@functools.lru_cache(maxsize=1024)  # a search's kernel calls see the same few kappas
def _kappa_constants(k: float) -> tuple[float, float, float]:
    # kappa^2 (k**2 raises past 2^512), the log normaliser and kappa / sinh kappa, 1 at
    # kappa = 0, taken past kappa 1 with sinh's dominant exponential factored out, as
    # sinh overflows from ~710
    scale = (math.exp(math.log(k) - (k + math.log1p(-math.exp(-2.0 * k)) - math.log(2.0)))
             if k > 1.0 else k / math.sinh(k) if k else 1.0)
    return k**2 if k < 2.0**512 else math.inf, _log_normaliser(k), scale


class _Terms:
    """The terms the kernel's regimes share, formed once per call from kappa (...),
    means (..., 3) and d (..., 3): scaled = d 2^e for 2 pi / lam = m 2^e, so k0 d =
    m scaled exactly, its squares ordinary where k0 |d| is; along = scaled . mean;
    kappa's constants; the radicand's a, b and size = a + kappa^2 + 2 |b|, or inf."""

    def __init__(self, kappa, mean, d, wavelength: float):
        _check_wavelength(wavelength)
        self.kappa, self.mean, self.d, self.wavelength = kappa, mean, d, wavelength
        self.m, self.e = math.frexp(TWO_PI / wavelength)
        self.square, self.log_norm, self.scale = _per_kappa(_kappa_constants, kappa)
        with np.errstate(over="ignore", invalid="ignore"):
            self.scaled = np.ldexp(d, self.e)
            self.along, self.norm = _dot(self.scaled, mean), _dot(self.scaled, self.scaled)
            self.a, self.b = (self.m * self.m) * self.norm, kappa * self.m * self.along
            self.size = self.a + self.square + 2.0 * np.abs(self.b)  # bounds every later step


def _domain_error(kappa: float, d, wavelength: float) -> DomainError:
    with np.errstate(over="ignore"):  # |d| / lam past the largest double reads inf
        size = np.hypot.reduce(d) / wavelength
    return DomainError(f"the radicand is not a finite double at kappa = {kappa:.6g}, "
                       f"|d| = {size:.6g} wavelengths")


def _radicand(t: _Terms) -> np.ndarray:
    """The sinc radicand w = a - kappa^2 - 2j b with a = (2 pi / lam)^2 |d|^2 and
    b = kappa (2 pi / lam) (mean . d). DomainError, at the largest point, unless
    every a + kappa^2 + 2 |b| is finite."""
    if not np.isfinite(t.size).all():
        point = np.unravel_index(np.argmax(t.size), t.size.shape)  # a nan counts as largest
        raise _domain_error(np.broadcast_to(t.kappa, t.size.shape)[point],
                            np.broadcast_to(t.d, t.size.shape + (3,))[point], t.wavelength)
    return np.asarray(t.a - t.square - 2.0j * t.b)


def _large_kappa_terms(t: _Terms, w, where=...):
    """(exponent, factor), R = exp(exponent) * factor, at the entries of w selected by
    where (all by default), with the terms t broadcast against w.

    With jz = sqrt(-w), Re jz >= 0, R = kappa / (1 - e^(-2 kappa)) e^(jz - kappa)
    (1 - e^(-2jz)) / jz, its log normaliser in the exponent: the factor is at most 2
    (2 at w = 0), so R underflows rather than overflow. As (jz)^2 = (kappa + j x_par)^2
    - x_perp^2 for k0 d split along and across the mean, jz - kappa = j (x_par + x_perp^2
    / (x_par - j (kappa + jz))), whose denominator adds terms of one sign in each part, so
    nothing cancels."""
    def pick(x):  # where all are selected, every term broadcasts against w as it is
        return x if where is ... else np.broadcast_to(x, np.shape(w))[where]

    # split at every point, then picked: masking 3-vectors costs more than the rejection
    across = t.scaled - t.along[..., None] * t.mean  # the rejection of scaled from the mean
    x_par, x_perp2 = pick(t.m * t.along), pick((t.m * t.m) * _dot(across, across))
    jz = np.sqrt(-pick(w))
    exponent = (1j * (x_par + x_perp2 / (x_par - 1j * (pick(t.kappa) + jz)))
                + pick(t.log_norm))
    factor = np.divide(1.0 - np.exp(-2.0 * jz), jz, out=np.full(jz.shape, 2.0 + 0j),
                       where=jz != 0.0)
    return exponent, factor


def _closed_form(kappa, mean, d, wavelength: float) -> np.ndarray:
    """The closed form over displacements d of shape (..., 3) in one pass, with
    kappa of shape (...) and mean directions of shape (..., 3) broadcast
    against them, so that one call can span concentrations or searches.

    The terms the regimes share (_Terms) are formed once; _radicand refuses the
    call with DomainError unless every point is in domain. Regimes, chosen per call
    from kappa: kappa = 0 the isotropic sinc, above 700 the exponential form of
    _large_kappa_terms, else kappa / sinh(kappa) times csinc_sqrt's sin(z)/z. One that
    covers the call runs on every point unmasked, else on a mask. d = 0 gives one exactly.
    """
    d = _as_displacement(d, batch=True)
    t = _Terms(np.asarray(kappa, dtype=float), np.asarray(mean, dtype=float), d, wavelength)
    w = _radicand(t)
    t.a = t.b = t.size = None  # kept to the end, they raise bulk-sweep's peak RSS 1%

    def spread(a):
        return np.broadcast_to(a, w.shape)

    def points(regime):  # every point (...) where the regime covers the call, else a mask
        count = np.count_nonzero(regime)
        return ... if count == regime.size else spread(regime) if count else None

    value = np.empty(w.shape, dtype=complex)
    isotropic, large = t.kappa == 0.0, t.kappa > LARGE_KAPPA_THRESHOLD
    moderate = points(~isotropic & ~large)
    if (where := points(isotropic)) is not None:
        m, e = math.frexp(wavelength)
        x = np.ldexp(np.sqrt(t.norm) / m, -t.e - e)  # |d| / lam, even past 1e308 m
        value[where] = scf_isotropic(spread(x)[where], 1.0)
    if (where := points(large)) is not None:
        exponent, factor = _large_kappa_terms(t, w, where)
        value[where] = np.exp(exponent) * factor
    scale, t = t.scale, None  # freed before csinc_sqrt's temporaries: 30% at 32,640 points
    if moderate is not None:
        value[moderate] = spread(scale)[moderate] * csinc_sqrt(w[moderate])
    np.copyto(value, 1.0, where=(d == 0.0).all(axis=-1))
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
    """Power-weighted mixture of one scf call per cluster; takes d like scf."""
    clusters = list(clusters)
    if not clusters:
        raise ValueError("cluster list must not be empty")
    total_power = sum(c.power for c in clusters)
    if abs(total_power - 1.0) > 1e-9:
        raise ValueError(f"cluster powers must sum to 1, got {total_power}")
    total = sum(c.power * scf(c, d, wavelength) for c in clusters)
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
# Fractions of a bracket at its 17 edges while refining a crossing
_SECTIONS = np.arange(17) / 16
# Per guess g, whether each of a round's 32 sorted taus lies outside g + 1..g + 15, the guessed
_OUTSIDE = np.abs(np.arange(32) - np.arange(8, 24)[:, None]) >= 8


def _crossing_floor(kappa, mean, heading, threshold: float) -> np.ndarray:
    """Per search, tau0 = sqrt(2 (1 - threshold)) / (2 pi s) wavelengths travelled: |ACF|
    > threshold on (0, tau0). R is the characteristic function of k0 u.d over arrival
    directions u, so for d = tau g wavelengths along a unit g, |ACF| >= 1 - (2 pi tau)^2
    Var(u.g) / 2. Var(u.h) = V = (mean.h)^2 Var(w) + |mean x h|^2 A / kappa for the unit
    heading h (the cross product holds the transverse weight free of cancellation), and
    g lies within delta of h, so sd(u.g) <= s = sqrt V + delta sqrt(max(Var w, A / kappa)),
    the max being u's largest variance along a unit vector. The kernel's d = tau h rounds
    h once, within eps / 2; its rejection s - (s.mean) mean reads a |mean| within 2.5 eps
    of 1 (direction_from_angles) as up to 5 eps |s| across and rounds within 2.5 eps |s|;
    delta = 16 eps leaves a margin over 8 eps. mean and heading are of shape (3,) or
    (searches, 3)."""
    along, across = _per_kappa(_direction_variances, kappa)
    roll, back = [1, 2, 0], [2, 0, 1]  # mean x heading, as np.cross forms it
    transverse = mean[..., roll] * heading[..., back] - mean[..., back] * heading[..., roll]
    s = (np.sqrt(_dot(mean, heading) ** 2 * along + _dot(transverse, transverse) * across)
         + 2.0**-48 * np.sqrt(np.maximum(along, across)))
    return np.sqrt(2.0 * (1.0 - threshold)) / s / TWO_PI


def decorrelation_time(
    cluster: VmfCluster,
    motion: MotionState,
    wavelength: float,
    monostatic: bool = False,
    threshold: float = 0.5,
    horizon: float | None = None,
) -> float:
    """Smallest positive lag at which |ACF| first falls to the threshold, searched
    as _decorrelation_times states with one cell: in wavelengths travelled tau = t f_m,
    bracketed on a geometric grid (64 points per decade from min(1e-6, horizon / 64))
    and refined to 1e-6 relative, then divided by f_m.
    Raises DecorrelationNotFound if no crossing occurs before the horizon, by
    default (10 + kappa / min(threshold, 0.5)) / f_m seconds as in decorrelation_table,
    10 / f_m at kappa = 0, past any radial crossing; DomainError where that default
    is not a positive finite double, f_m is not finite, or a lag before the crossing
    is out of the kernel's domain.
    """
    heading = direction_from_angles(motion.phi_v, motion.psi_v)
    return float(_decorrelation_times(np.array([cluster.kappa]), np.array([motion.speed]),
                                      cluster.mean_direction, heading, wavelength,
                                      monostatic, threshold, horizon)[0])


def _decorrelation_times(kappa, speed, mean, heading, wavelength: float, monostatic: bool,
                         threshold: float, horizon: float | None = None) -> np.ndarray:
    """decorrelation_time of each cell i, at concentration kappa[i] and speed[i],
    with one mean direction and heading for all cells (3,) or one per cell
    (cells, 3), up to horizon seconds, or each cell's default horizon if None.

    The kernel sees a lag t only through d = tau h wavelengths for the unit heading
    h, where tau = t f_m is the number of wavelengths travelled. So the search runs
    in tau, at wavelength 1, once per distinct concentration, mean, heading and
    horizon in tau, and each cell's time is its search's tau divided by its own f_m.
    The default horizon is 10 + kappa / min(threshold, 0.5) wavelengths, checked in
    seconds; an explicit horizon is checked in seconds, then taken times f_m and
    clamped to the positive doubles.

    Each kernel call of the scan evaluates a window of grid columns for every
    search that has not crossed yet, each search's window its own: the first starts
    at the search's first tau past half of _crossing_floor, before which its |ACF|
    is certified above the threshold, or else at its horizon, and covers half a
    decade (32 columns); each later one the next two decades (128 columns). A
    search leaves at its first crossing. Where a call holds a tau out of the
    kernel's domain, only the taus in domain are evaluated, and the first search
    with such a tau before its first crossing raises DomainError naming it.
    Then each kernel call refines two levels: it evaluates the 15 evenly spaced taus
    inside the bracket of every live search, and the 15 inside the sixteenth where
    a line through |ACF| - threshold at the bracket's ends crosses zero. A level keeps
    the sixteenth that holds its first tau past half the floor below the threshold
    (else the last one), and the second applies where the first kept the guessed
    sixteenth, until the 1e-6 relative width: the scan never looks at or below half
    the floor either. Each kept bracket is the one a call per level would keep, and a
    search's rounds use its own bracket only, so its tau does not depend on the
    guesses or on the searches run with it."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    _check_wavelength(wavelength)
    default = horizon is None
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f_m = (2.0 if monostatic else 1.0) * speed / wavelength  # as doppler_params forms it
        if default:
            # |ACF| of a concentrated cluster decays over ~ sqrt(kappa) wavelengths
            # (transverse) up to the radial kappa sqrt(1 / threshold^2 - 1) / (2 pi),
            # past the 10 of broad scattering; cover both. In seconds, an overflow, or
            # f_m of 0 or inf, is out of domain.
            horizon = 10.0 + kappa / min(threshold, 0.5)
            seconds = horizon / f_m
        else:
            seconds, horizon = horizon, horizon * f_m
    seconds = np.broadcast_to(np.asarray(seconds, dtype=float), kappa.shape)
    valid = np.isfinite(seconds) & (seconds > 0.0)
    if not valid.all():
        cell, error = np.argmin(valid), DomainError if default else ValueError
        raise error(f"horizon must be positive and finite, got {seconds[cell]:g} s at kappa = "
                    f"{kappa[cell]:.6g}, speed = {speed[cell]:.6g} m/s")
    if not np.isfinite(f_m).all():
        cell = np.argmin(np.isfinite(f_m))
        raise DomainError(f"the Doppler rate f_m is not a finite double at kappa = "
                          f"{kappa[cell]:.6g}, speed = {speed[cell]:.6g} m/s")
    # an explicit horizon in tau is clamped to the positive normal doubles; one raised
    # to the smallest still ends before the floor's least, 4e-9, and any crossing
    horizon = np.clip(np.broadcast_to(horizon, kappa.shape), sys.float_info.min,
                      sys.float_info.max)
    keys = np.column_stack([kappa, np.broadcast_to(mean, (len(kappa), 3)),
                            np.broadcast_to(heading, (len(kappa), 3)), horizon])
    index = {}  # each distinct key's row bytes, in order of its first cell
    inverse = np.array([index.setdefault(key.tobytes(), len(index)) for key in keys], dtype=int)
    keys = np.frombuffer(b"".join(index), dtype=float).reshape(-1, 8)
    kappa, mean, heading, horizon = keys[:, 0], keys[:, 1:4], keys[:, 4:7], keys[:, 7]
    half = 0.5 * _crossing_floor(kappa, mean, heading, threshold)

    def excess(tau, searches):
        d = tau[..., None] * heading[searches]
        return np.abs(_closed_form(kappa[searches], mean[searches], d, 1.0)) - threshold

    def excess_in_domain(taus, scan):
        # a scan call refused a tau: evaluate the taus in domain only, and refuse the
        # first search whose first tau out of domain precedes its first crossing
        d = taus[..., None] * heading[scan, None]
        valid = np.isfinite(_Terms(kappa[scan, None], mean[scan, None], d, 1.0).size)
        values = np.full(taus.shape, np.inf)
        values[valid] = excess(taus[valid], np.broadcast_to(scan[:, None], taus.shape)[valid])
        early = ~valid & ~np.logical_or.accumulate(values < 0.0, axis=1)
        if early.any():
            row, col = np.argwhere(early)[0]
            raise _domain_error(kappa[scan[row]], d[row, col], 1.0)
        return values

    # Each search's row is min(1e-6, horizon / 64) times ratio^k as sequential
    # products, up to the first product at or past the horizon, clamped to it; the
    # clamp pads shorter rows with their horizon, which cannot precede a first crossing.
    ratio = 10.0 ** (1.0 / _GRID_POINTS_PER_DECADE)
    start = np.minimum(1e-6, horizon / _GRID_POINTS_PER_DECADE)
    count = int(np.ceil(np.max(np.log(horizon) - np.log(start)) / math.log(ratio))) + 2
    steps = np.full((len(kappa), count), ratio)
    steps[:, 0] = start
    # per column [tau, |ACF| - threshold], 1 - threshold where unscanned, after [0, 1 - threshold]
    table = np.full((len(kappa), count + 1, 2), 1.0 - threshold)
    table[:, 0, 0], grid, gap = 0.0, table[:, 1:, 0], table[:, 1:, 1]
    with np.errstate(over="ignore"):  # an overflowed product is clamped to the horizon
        np.minimum(np.cumprod(steps, axis=1), horizon[:, None], out=grid)
    # the next column of each search's scan: first its first tau past half its floor
    # (at or past the next double up), or else its horizon, where the clamp starts
    column = np.argmax(grid >= np.minimum(np.nextafter(half, np.inf), horizon)[:, None], 1)
    searches = np.arange(len(kappa))
    first, searching = np.zeros(len(kappa), dtype=int), np.ones(len(kappa), dtype=bool)
    width = _FIRST_WINDOW
    while (scanning := searching & (column < count)).any():
        scan = searches[scanning]
        # each search's own next columns, cut at the last column; a search whose
        # window runs past it repeats it
        size = min(width, count - column[scan].min())
        cols = np.minimum(column[scan, None] + np.arange(size), count - 1)
        taus = grid[scan[:, None], cols]
        try:
            gap[scan[:, None], cols] = values = excess(taus, scan[:, None])
        except DomainError:
            gap[scan[:, None], cols] = values = excess_in_domain(taus, scan)
        below = values < 0.0
        crossed = below.any(axis=1)
        first[scan[crossed]] = cols[crossed, np.argmax(below[crossed], axis=1)]
        searching[scan[crossed]] = False
        column[scan] += width
        width = _SCAN_WINDOW
    if searching.any():
        cell = np.argmax(searching[inverse])
        raise DecorrelationNotFound(f"|ACF| never fell below {threshold} within horizon "
                                    f"{float(seconds[cell])} s")
    # each search's bracket [[lo, excess at lo], [hi, excess at hi]]
    bracket = table[searches[:, None], first[:, None] + [0, 1]]
    live = searches[bracket[:, 1, 0] - bracket[:, 0, 0] > 1e-6 * bracket[:, 1, 0]]
    while live.size:
        # lo + (hi - lo) k / 16 for k = 0..16, finite past 9e307: lo = 0 or lo >= hi / 2
        # in every bracket, so hi - lo is exact and k = 0 and 16 give lo and hi; then the
        # guessed sixteenth's inner taus as the next level forms them (copies of its lo once
        # 1e-6 narrow), which count only if its hi is below. In sorted order, the first tau
        # past half the floor below the threshold and the one before it bracket next.
        rows, pairs = np.arange(live.size), np.empty((live.size, 32, 2))
        pairs[:, ::31] = ends = bracket[live]
        (a, lo_excess), (b, hi_excess) = ends.transpose(1, 2, 0)
        lo_excess = np.fmax(lo_excess, 0.0)  # hi's is below 0, so the line crosses in [0, 1]
        guess = np.minimum(16.0 * lo_excess / (lo_excess - hi_excess), 15.0).astype(int)
        taus, values = pairs[..., 0], pairs[..., 1]
        taus[:, :17] = a[:, None] + (b - a)[:, None] * _SECTIONS
        c, e = taus[rows, guess, None], taus[rows, guess + 1, None]
        taus[:, 17:] = c + np.where(e - c > 1e-6 * e, e - c, 0.0) * _SECTIONS[1:-1]
        taus.sort(axis=1)
        values[:, 1:-1] = excess(taus[:, 1:-1], live[:, None])
        below = (values < 0.0) & (taus > half[live, None])
        below[:, -1] = True
        below &= _OUTSIDE[guess] | below[rows, guess + 16, None]
        bracket[live] = ends = pairs[rows[:, None], np.argmax(below, axis=1)[:, None] + [-1, 0]]
        live = live[ends[:, 1, 0] - ends[:, 0, 0] > 1e-6 * ends[:, 1, 0]]
    return (0.5 * bracket[:, 0, 0] + 0.5 * bracket[:, 1, 0])[inverse] / f_m
