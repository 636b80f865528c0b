"""von Mises-Fisher directional statistics and supporting special functions."""

import math
import sys
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
_TINY = sys.float_info.min  # smallest normal double


class DomainError(ValueError):
    """A valid input whose radicand, concentration, phase or horizon is not a finite double."""


def direction_from_angles(phi: float, psi: float) -> np.ndarray:
    """Unit vector (cos phi cos psi, sin phi cos psi, sin psi) for azimuth phi
    and elevation psi, both in radians."""
    if not math.isfinite(phi):
        raise ValueError(f"azimuth must be finite, got {phi}")
    if not abs(psi) <= _HALF_PI:  # also refuses NaN
        raise ValueError(f"elevation must lie in [-pi/2, pi/2], got {psi}")
    cpsi = math.cos(psi)
    return np.array([math.cos(phi) * cpsi, math.sin(phi) * cpsi, math.sin(psi)])


def angles_from_direction(unit) -> tuple[float, float]:
    """(azimuth, elevation) of a unit vector; inverse of direction_from_angles
    away from the poles."""
    u = np.asarray(unit, dtype=float)
    if u.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-9:
        raise ValueError("direction must have unit norm")
    psi = math.asin(min(1.0, max(-1.0, float(u[2]))))
    phi = math.atan2(float(u[1]), float(u[0]))
    return phi, psi


@dataclass(frozen=True)
class VmfCluster:
    """One scattering cluster.

    The mean direction of arrival is given by azimuth mu_phi and elevation
    mu_psi in radians, kappa >= 0 sets the angular concentration (0 is uniform
    over the sphere) and power is the normalized cluster power in (0, 1].
    """

    mu_phi: float
    mu_psi: float
    kappa: float
    power: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mu_phi) and math.isfinite(self.mu_psi)):
            raise ValueError("mean direction angles must be finite")
        if abs(self.mu_psi) > _HALF_PI:
            raise ValueError(f"mu_psi must lie in [-pi/2, pi/2], got {self.mu_psi}")
        if not (math.isfinite(self.kappa) and self.kappa >= 0.0):
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        if not 0.0 < self.power <= 1.0 + 1e-12:
            raise ValueError(f"power must lie in (0, 1], got {self.power}")

    @property
    def mean_direction(self) -> np.ndarray:
        return direction_from_angles(self.mu_phi, self.mu_psi)


def _log_normaliser(kappa: float) -> float:
    """log(kappa / (1 - e^(-2 kappa))): the log of kappa / sinh kappa, the vMF
    density's normalising constant, without its factor 2 e^(-kappa); log(1/2) at
    kappa 0. Nothing cancels at any kappa, and from kappa ~ 18.7 on it is log kappa
    bit for bit."""
    return math.log(kappa / -math.expm1(-2.0 * kappa)) if kappa else math.log(0.5)


def vmf_pdf(cluster: VmfCluster, phi, psi):
    """Angular density at azimuth phi / elevation psi (radians).

    Includes the cos(psi) area factor, so the density integrates to one over
    phi in [-pi, pi], psi in [-pi/2, pi/2]. Accepts scalars or broadcastable
    arrays. The density is kappa / (2 pi (1 - e^(-2 kappa))) e^(-kappa g) cos(psi),
    assembled in the log domain, where g, one less the cosine of the angle
    from the mean, is formed by the haversine. Nothing of size kappa
    cancels, so the density holds to about 3e-14 relative up to the largest
    finite kappa; at kappa = 0 it is the uniform-sphere density cos(psi) / (4 pi).
    """
    phi_arr = np.asarray(phi, dtype=float)
    psi_arr = np.asarray(psi, dtype=float)
    if np.any(np.abs(psi_arr) > _HALF_PI + 1e-12):
        raise ValueError("elevation must lie in [-pi/2, pi/2]")
    cpsi = np.maximum(np.cos(psi_arr), 0.0)
    half_psi = np.sin(0.5 * (psi_arr - cluster.mu_psi))
    half_phi = np.sin(0.5 * (phi_arr - cluster.mu_phi))
    gap = 2.0 * (half_psi * half_psi + math.cos(cluster.mu_psi) * cpsi * half_phi * half_phi)
    log_norm = _log_normaliser(cluster.kappa) - math.log(TWO_PI)
    with np.errstate(divide="ignore"):
        out = np.exp(log_norm - cluster.kappa * gap + np.log(cpsi))
    if out.ndim == 0:
        return float(out)
    return out


def _tangent_basis(unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # e1 = helper x unit normalized, e2 = unit x e1, for the helper axis z,
    # or x when unit is within about 26 degrees of a pole.
    helper = [0.0, 0.0, 1.0] if abs(unit[2]) < 0.9 else [1.0, 0.0, 0.0]
    e1 = np.cross(helper, unit)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(unit, e1)


def _polar_transform(kappa: float, u: np.ndarray,
                     sin_polar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Uniforms u in [0, 1) to the cosine w of the angle from the mean
    # direction and its sine, by the inversion sample_vmf states. The log1p
    # argument lies in (-1, 0] for every u and kappa, so w <= 1 and only the
    # lower end needs a clamp. Below the smallest normal double
    # u expm1(-2 kappa) would underflow, and the density is uniform to within
    # rounding: such kappa takes the kappa = 0 map. Elementwise, so each row
    # of a stack maps exactly as it would alone. No new array: w is written
    # into u and the sine into sin_polar, an array of u's shape.
    w = u
    if kappa < _TINY:
        w *= 2.0
        w -= 1.0
    else:
        w *= math.expm1(-2.0 * kappa)
        np.log1p(w, out=w)
        w /= kappa
        w += 1.0
        np.maximum(w, -1.0, out=w)
    np.multiply(w, w, out=sin_polar)
    np.subtract(1.0, sin_polar, out=sin_polar)
    return w, np.sqrt(sin_polar, out=sin_polar)


def sample_vmf(cluster: VmfCluster, n: int, seed) -> np.ndarray:
    """Draw n unit vectors from the cluster's distribution, shape (n, 3).

    The cosine along the mean direction is sampled by exact CDF inversion
    (Wood 1994), w = 1 + log1p(u expm1(-2 kappa)) / kappa for uniform u, and
    the tangent angle uniformly. As kappa -> 0 the form tends to the uniform
    w = 1 - 2u; the log(1 - u + u e^(-2 kappa)) of 0.2.x returned the mean
    direction for every sample below kappa ~ 5e-17, and its seeded values
    differ from these at rounding level. No rejection step, so the output is
    a fixed deterministic function of the seed: n uniforms u, then n angles.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    theta = rng.uniform(0.0, TWO_PI, n)
    w, sin_polar = _polar_transform(cluster.kappa, u, np.empty_like(u))
    mean = cluster.mean_direction
    e1, e2 = _tangent_basis(mean)
    along_e1 = sin_polar * np.cos(theta)
    along_e2 = sin_polar * np.sin(theta)
    return w[:, None] * mean + along_e1[:, None] * e1 + along_e2[:, None] * e2


def mean_resultant_length(kappa: float) -> float:
    """coth(kappa) - 1/kappa, the expected norm of the average sample direction."""
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    if kappa < 0.2:
        # coth kappa - 1/kappa cancels; its series to kappa^11 holds 3e-15 below 0.2
        s = kappa * kappa
        return kappa * (1 / 3 + s * (-1 / 45 + s * (2 / 945 + s * (-1 / 4725 + s * (
            2 / 93555 - s * 1382 / 638512875)))))
    return 1.0 / math.tanh(kappa) - 1.0 / kappa


def _direction_variances(kappa: float) -> tuple[float, float]:
    """(Var(w), A / kappa): the variances of a direction drawn from the cluster along
    its mean, w = mean . u, and along any one unit vector across it, where
    Var(w) = 1/kappa^2 - csch^2 kappa and A = mean_resultant_length(kappa); both
    are 1/3 at kappa = 0. Below kappa = 0.01 both differences cancel and their
    series are taken instead, truncated before a negative term so they
    overestimate; from 20 on Var(w) drops csch^2 kappa, under 7e-15 of it."""
    if kappa < 0.01:
        square = kappa * kappa
        return (1.0 / 3.0 - square / 15.0 + 2.0 * square * square / 189.0,
                1.0 / 3.0 - square / 45.0 + 2.0 * square * square / 945.0)
    along = (1.0 / kappa) ** 2  # underflows, not overflows, past kappa = 2^512
    if kappa < 20.0:
        along -= 1.0 / math.sinh(kappa) ** 2
    return along, mean_resultant_length(kappa) / kappa


def kappa_from_angular_width(delta_theta: float) -> float:
    """Concentration whose density falls to exp(-2) of its peak at an angular offset
    of half the given width: 2 / (1 - cos(delta_theta / 2)) = 1 / sin^2(delta_theta / 4),
    free of cancellation; DomainError below 1.71e-152 deg, where it is not a finite double."""
    if not 0.0 < delta_theta < TWO_PI:
        raise ValueError(f"angular width must lie in (0, 2 pi), got {delta_theta}")
    square = math.sin(0.25 * delta_theta) ** 2
    if not square or math.isinf(1.0 / square):
        raise DomainError(f"angular width {delta_theta} is too narrow for a finite kappa")
    return 1.0 / square


def csinc_sqrt(w):
    """sinc of the square root, evaluated as an entire function of w.

    sin(z)/z with z = sqrt(w), which is even in z, so both square-root
    branches give the same value. The one special point is the removable
    singularity at w = 0, where the value is exactly 1. A scalar w gives a
    complex, an array a complex array of the same shape.
    """
    w = np.asarray(w, dtype=complex)
    if not np.all(np.isfinite(w)):
        raise ValueError("argument must be finite")
    z = np.sqrt(w)
    zero = z == 0.0
    z = np.where(zero, 1.0, z)  # a finite stand-in where w = 0, replaced below
    value = np.where(zero, 1.0, np.sin(z) / z)
    return value.item() if value.ndim == 0 else value
