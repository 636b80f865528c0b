"""Independent verification paths for the closed-form correlation results.

Two routes that never touch the closed form: two-dimensional quadrature of
the plane-wave phase averaged over the angular density, and a
Monte-Carlo multipath ensemble built from the generative channel sum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .correlation import _as_displacement, _check_wavelength
from .vmf import TWO_PI, VmfCluster, _polar_transform, _tangent_basis, sample_vmf

# 15-point Kronrod rule with the embedded 7-point Gauss rule (nodes on [-1, 1];
# the Gauss nodes are the odd-indexed Kronrod nodes).
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_GK_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_INITIAL_PANELS = 16  # of the first adaptive pass


@dataclass(frozen=True)
class QuadratureSpec:
    """Requested accuracy for the quadrature oracle."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 4096

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


class QuadratureToleranceError(RuntimeError):
    """Raised when the requested tolerance was not reached; carries the best
    estimate and the achieved error bound."""

    def __init__(self, message: str, estimate: complex, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def _panel_rule(f, lo: np.ndarray, hi: np.ndarray):
    # Batched Kronrod/Gauss evaluation; f maps a node vector to its values.
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GK_NODES[None, :]
    vals = f(nodes.reshape(-1)).reshape(lo.size, _GK_NODES.size)
    k15 = half * np.einsum("n,pn->p", _GK_WEIGHTS, vals)
    g7 = half * np.einsum("n,pn->p", _G7_WEIGHTS, vals[:, 1::2])
    return k15, np.abs(k15 - g7)


def _adaptive_panels(f, lo: float, hi: float, abs_tol: float, rel_tol: float,
                     max_panels: int):
    """Globally adaptive panel subdivision of the interval [lo, hi].

    f maps a vector of nodes to the integrand there. The first pass uses
    _INITIAL_PANELS panels, or max_panels if fewer; then the panels with the
    largest error estimates are split until the summed error meets the
    tolerances. Returns the integral; raises QuadratureToleranceError when
    the panel budget runs out first.
    """
    edges = np.linspace(lo, hi, min(_INITIAL_PANELS, max_panels) + 1)
    panel_lo, panel_hi = edges[:-1], edges[1:]
    k15, err = _panel_rule(f, panel_lo, panel_hi)
    while True:
        total = complex(k15.sum())
        total_err = float(err.sum())
        allowed = max(abs_tol, rel_tol * abs(total))
        if total_err <= allowed:
            return total
        if panel_lo.size >= max_panels:
            raise QuadratureToleranceError(
                f"tolerance not met with {panel_lo.size} panels "
                f"(error estimate {total_err:.3e})",
                estimate=total,
                error=total_err,
            )
        split = err > allowed / (2.0 * panel_lo.size)
        if not split.any():
            split[np.argmax(err)] = True
        mids = 0.5 * (panel_lo[split] + panel_hi[split])
        new_lo = np.concatenate([panel_lo[split], mids])
        new_hi = np.concatenate([mids, panel_hi[split]])
        new_k15, new_err = _panel_rule(f, new_lo, new_hi)
        keep = ~split
        panel_lo = np.concatenate([panel_lo[keep], new_lo])
        panel_hi = np.concatenate([panel_hi[keep], new_hi])
        k15 = np.concatenate([k15[keep], new_k15])
        err = np.concatenate([err[keep], new_err])


_MAX_QUADRATURE_KAPPA = 1e6
# Bound on m * 15 * max_subdivisions: the azimuth count times the nodes of the
# panel budget. An adaptive run evaluates fewer than four times the budget's
# panels, so no accepted point costs more than a few seconds.
_MAX_AZIMUTH_WORK = 10**8
# Node x azimuth entries evaluated at once (256 kB of doubles).
_CHUNK_ENTRIES = 1 << 15


def scf_quadrature(
    cluster: VmfCluster, d, wavelength: float, spec: QuadratureSpec | None = None
) -> complex:
    """Spatial correlation by direct numerical integration.

    Averages exp(j (2 pi / lam) doa . d) over the cluster's angular density in
    the frame of the mean direction: doa = (1 - s) mu + rho (cos a e1 + sin a e2)
    with rho = sqrt(s (2 - s)), where the density depends on s = 1 - cos(polar)
    alone. The outer integral over s is adaptively subdivided, the inner
    azimuth average uses a trapezoid rule. Raises QuadratureToleranceError if
    the requested accuracy cannot be certified or the point needs more work
    than the oracle allows, and ValueError for concentrations beyond 1e6.
    """
    if spec is None:
        spec = QuadratureSpec()
    d = _as_displacement(d)
    _check_wavelength(wavelength)
    kappa = cluster.kappa
    if kappa > _MAX_QUADRATURE_KAPPA:
        raise ValueError(f"concentration {kappa} is outside the supported quadrature range")
    k0 = TWO_PI / wavelength
    mean = cluster.mean_direction
    e1, e2 = _tangent_basis(mean)
    along = k0 * float(mean @ d)
    a1, a2 = k0 * float(e1 @ d), k0 * float(e2 @ d)
    # past s = 45 / kappa the density, and the tail mass left out, are below
    # e^-45 of the peak
    s_max = min(2.0, 45.0 / kappa) if kappa > 0.0 else 2.0
    rho_max = math.sqrt(s_max * (2.0 - s_max)) if s_max < 1.0 else 1.0
    # The inner integrand exp(j z cos(a - a0)), z = rho hypot(a1, a2), is
    # periodic and entire in a, so the m-point trapezoid rule is off by about
    # 2 |J_m(z)| <= 2 (z / 2)^m / m!; m >= 2 z + 40 puts that below 1e-38.
    m = 2 * math.ceil(math.hypot(a1, a2) * rho_max) + 40
    if m * _GK_NODES.size * spec.max_subdivisions > _MAX_AZIMUTH_WORK:
        raise QuadratureToleranceError(
            f"{m} azimuth nodes on {spec.max_subdivisions} panels exceed the work bound",
            estimate=complex(math.nan, math.nan), error=math.inf)
    # Nodes a and a + pi carry opposite projections, so the rule's m phases
    # pair into m / 2 cosines.
    azimuth = TWO_PI / m * np.arange(m // 2)
    projection = a1 * np.cos(azimuth) + a2 * np.sin(azimuth)
    cols = min(projection.size, _CHUNK_ENTRIES)
    rows = _CHUNK_ENTRIES // cols
    log_norm = math.log(kappa / -math.expm1(-2.0 * kappa)) if kappa > 0.0 else math.log(0.5)

    def integrand(s: np.ndarray) -> np.ndarray:
        # density kappa e^(-kappa s) / (1 - e^(-2 kappa)) over s, times the
        # phase along the mean, times the azimuth average
        rho = np.sqrt(s * (2.0 - s))
        inner = np.zeros(s.size)
        for i in range(0, s.size, rows):
            for j in range(0, projection.size, cols):
                block = np.multiply.outer(rho[i:i + rows], projection[j:j + cols])
                inner[i:i + rows] += np.cos(block, out=block).sum(axis=1)
        return np.exp(log_norm - kappa * s + 1j * along * (1.0 - s)) * (inner / projection.size)

    return _adaptive_panels(integrand, 0.0, s_max, spec.abs_tol, spec.rel_tol,
                            spec.max_subdivisions)


@dataclass(frozen=True)
class MultipathEnsemble:
    """One draw of the generative channel: per-path amplitudes, arrival
    directions and initial phases, plus the seed it was built from."""

    amplitudes: np.ndarray
    doas: np.ndarray
    phases: np.ndarray
    seed: int

    def __post_init__(self):
        amplitudes = np.asarray(self.amplitudes, dtype=float)
        doas = np.asarray(self.doas, dtype=float)
        phases = np.asarray(self.phases, dtype=float)
        n = amplitudes.size
        if n < 1:
            raise ValueError("ensemble needs at least one path")
        if doas.shape != (n, 3) or phases.shape != (n,):
            raise ValueError("amplitudes, doas and phases must agree in path count")
        if abs(float(np.sum(amplitudes**2)) - 1.0) > 1e-9:
            raise ValueError("path powers must sum to 1")
        if np.max(np.abs(np.linalg.norm(doas, axis=1) - 1.0)) > 1e-9:
            raise ValueError("arrival directions must be unit vectors")
        for name, arr in (("amplitudes", amplitudes), ("doas", doas), ("phases", phases)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_paths(self) -> int:
        return self.amplitudes.size


def build_ensemble(cluster: VmfCluster, n_paths: int, seed: int) -> MultipathEnsemble:
    """Equal-amplitude ensemble with directions drawn from the cluster and
    independent uniform phases, fully determined by the seed."""
    if n_paths < 10:
        raise ValueError(f"at least 10 paths are required, got {n_paths}")
    doa_seq, phase_seq = np.random.SeedSequence(seed).spawn(2)
    doas = sample_vmf(cluster, n_paths, doa_seq)
    phases = np.random.default_rng(phase_seq).uniform(0.0, TWO_PI, n_paths)
    amplitudes = np.full(n_paths, 1.0 / math.sqrt(n_paths))
    return MultipathEnsemble(amplitudes=amplitudes, doas=doas, phases=phases, seed=seed)


def transfer_function(ensemble: MultipathEnsemble, dr, wavelength: float) -> complex:
    """Channel value at offset dr: the coherent sum of the ensemble's plane
    waves, with the random initial delay of each path carried by its phase."""
    dr = _as_displacement(dr)
    _check_wavelength(wavelength)
    k0 = TWO_PI / wavelength
    return complex(
        np.sum(ensemble.amplitudes * np.exp(1j * (ensemble.phases + k0 * (ensemble.doas @ dr))))
    )


# Path samples per Monte-Carlo block: large enough to amortize the numpy
# calls, small enough that the block arrays stay well under a megabyte.
_BLOCK_PATH_SAMPLES = 16384


def scf_montecarlo(
    cluster: VmfCluster,
    d,
    wavelength: float,
    n_paths: int = 64,
    n_realizations: int = 1000,
    seed: int = 0,
) -> tuple[complex, float]:
    """Ensemble estimate of the spatial correlation and its standard error.

    Each realization draws fresh arrival directions and contributes the
    pair product averaged over the uniform initial phases, which collapses to
    sum_n A_n^2 exp(j k0 doa_n . d); the phase average is exact, so the
    zero-displacement estimate is exactly one.

    The draws come from two streams per call, spawned from the seed as
    build_ensemble spawns its own: u_rng, theta_rng = (default_rng(s) for s
    in SeedSequence(seed).spawn(2)). Realization i takes row i of each, the
    n_paths uniforms u_rng.random((n_realizations, n_paths))[i] and the
    n_paths tangent angles theta_rng.uniform(0, 2 pi, (n_realizations,
    n_paths))[i]. The phase is evaluated in the frame of the mean direction
    mu without building the directions: with along = k0 (mu . d), across =
    k0 |d - (mu . d) mu|, w from u by the sampler's polar transform and
    sp = sqrt(1 - w^2), a path's phase is along w + across sp cos(theta),
    theta measured from the transverse direction of d. A realization's term
    is mean(cos phase) + j mean(sin phase). The rows are drawn and averaged
    in blocks of about 16k path samples; each row rounds exactly as it
    would alone, so seeded results do not depend on the block size, and
    two displacements with the same along and across, such as rotations of
    each other about mu, give equal results. They differ from the 0.2.x
    releases, which measured theta from a fixed tangent basis and summed
    exp(j k0 doa . d) over the directions.
    """
    if n_realizations < 100:
        raise ValueError(f"at least 100 realizations are required, got {n_realizations}")
    if n_paths < 10:
        raise ValueError(f"at least 10 paths are required, got {n_paths}")
    d = _as_displacement(d)
    _check_wavelength(wavelength)
    k0 = TWO_PI / wavelength
    mean = cluster.mean_direction
    projection = float(mean @ d)
    along = k0 * projection
    across = k0 * math.hypot(*(d - projection * mean))
    block = max(1, _BLOCK_PATH_SAMPLES // n_paths)
    u_rng, theta_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    real = np.empty(n_realizations)
    imag = np.empty(n_realizations)
    for start in range(0, n_realizations, block):
        rows = min(block, n_realizations - start)
        u = u_rng.random((rows, n_paths))
        theta = theta_rng.uniform(0.0, TWO_PI, (rows, n_paths))
        w, sin_polar = _polar_transform(cluster.kappa, u)
        # phase = along w + across sp cos(theta), in place
        phase = np.multiply(w, along, out=w)
        sin_polar *= across
        sin_polar *= np.cos(theta, out=theta)
        phase += sin_polar
        real[start:start + rows] = np.mean(np.cos(phase, out=theta), axis=-1)
        imag[start:start + rows] = np.mean(np.sin(phase, out=phase), axis=-1)
    estimate = complex(np.mean(real), np.mean(imag))
    spread = float(np.sum((real - estimate.real) ** 2) + np.sum((imag - estimate.imag) ** 2))
    std_error = math.sqrt(spread / (n_realizations * (n_realizations - 1)))
    return estimate, std_error
