"""Independent verification paths for the closed-form correlation results.

Two routes that never touch the closed form: adaptive two-dimensional
quadrature of the plane-wave phase averaged over the angular density, and a
Monte-Carlo multipath ensemble built from the generative channel sum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .correlation import _as_displacement, _check_wavelength
from .vmf import _HALF_PI, TWO_PI, VmfCluster, _vmf_directions, sample_vmf, vmf_pdf

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
    # Batched Kronrod/Gauss evaluation; f maps a node vector to (nodes, cols).
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GK_NODES[None, :]
    vals = np.asarray(f(nodes.reshape(-1)))
    vals = vals.reshape(lo.size, _GK_NODES.size, -1)
    k15 = half[:, None] * np.einsum("n,pnc->pc", _GK_WEIGHTS, vals)
    g7 = half[:, None] * np.einsum("n,pnc->pc", _G7_WEIGHTS, vals[:, 1::2, :])
    return k15, np.abs(k15 - g7)


def _adaptive_panels(f, lo: float, hi: float, abs_tol: float, rel_tol: float,
                     max_panels: int, initial: int = 16):
    """Globally adaptive panel subdivision of the interval [lo, hi].

    f maps a vector of nodes to an array of shape (nodes, cols); every column
    is integrated at once and the panels with the largest error estimates are
    split until all column errors meet the tolerances. Returns per-column
    (integral, error estimate) arrays; raises QuadratureToleranceError when
    the panel budget runs out first.
    """
    edges = np.linspace(lo, hi, initial + 1)
    panel_lo, panel_hi = edges[:-1], edges[1:]
    k15, err = _panel_rule(f, panel_lo, panel_hi)
    while True:
        total = k15.sum(axis=0)
        total_err = err.sum(axis=0)
        allowed = np.maximum(abs_tol, rel_tol * np.abs(total))
        if np.all(total_err <= allowed):
            return total, total_err
        if panel_lo.size >= max_panels:
            raise QuadratureToleranceError(
                f"tolerance not met with {panel_lo.size} panels "
                f"(error estimate {float(total_err.max()):.3e})",
                estimate=complex(total.flat[int(np.argmax(total_err))]),
                error=float(total_err.max()),
            )
        worst = err.max(axis=1)
        split = worst > allowed.min() / (2.0 * panel_lo.size)
        if not split.any():
            split[np.argmax(worst)] = True
        mids = 0.5 * (panel_lo[split] + panel_hi[split])
        new_lo = np.concatenate([panel_lo[split], mids])
        new_hi = np.concatenate([mids, panel_hi[split]])
        new_k15, new_err = _panel_rule(f, new_lo, new_hi)
        keep = ~split
        panel_lo = np.concatenate([panel_lo[keep], new_lo])
        panel_hi = np.concatenate([panel_hi[keep], new_hi])
        k15 = np.concatenate([k15[keep], new_k15])
        err = np.concatenate([err[keep], new_err])


_MAX_QUADRATURE_KAPPA = 1e4
_RECENTER_KAPPA = 100.0
_DENSITY_CUTOFF_LOG = math.log(1e-18)


def _angle_windows(cluster: VmfCluster) -> tuple[float, float, float, float]:
    # Full domain for broad clusters; for concentrated ones, a window around
    # the mean direction where the density is above 1e-18 of its peak (the
    # truncated tail mass is bounded by the same factor).
    if cluster.kappa <= _RECENTER_KAPPA:
        return -_HALF_PI, _HALF_PI, cluster.mu_phi - math.pi, cluster.mu_phi + math.pi
    theta = 1.1 * math.acos(max(-1.0, 1.0 + _DENSITY_CUTOFF_LOG / cluster.kappa))
    psi_lo = max(-_HALF_PI, cluster.mu_psi - theta)
    psi_hi = min(_HALF_PI, cluster.mu_psi + theta)
    edge = min(max(abs(psi_lo), abs(psi_hi)), _HALF_PI)
    half_width = min(math.pi, theta / max(math.cos(edge), 1e-12))
    return psi_lo, psi_hi, cluster.mu_phi - half_width, cluster.mu_phi + half_width


def scf_quadrature(
    cluster: VmfCluster, d, wavelength: float, spec: QuadratureSpec | None = None
) -> complex:
    """Spatial correlation by direct numerical integration.

    Averages exp(j (2 pi / lam) doa . d) over the cluster's angular density,
    with the elevation integral outer and the azimuth integral inner, both
    adaptively subdivided. Raises QuadratureToleranceError if the requested
    accuracy cannot be certified, and ValueError for concentrations beyond
    1e4 where the integrand peaks faster than the rule resolves.
    """
    if spec is None:
        spec = QuadratureSpec()
    d = _as_displacement(d)
    _check_wavelength(wavelength)
    if cluster.kappa > _MAX_QUADRATURE_KAPPA:
        raise ValueError(
            f"concentration {cluster.kappa} is outside the supported quadrature range"
        )
    k0 = TWO_PI / wavelength
    psi_lo, psi_hi, phi_lo, phi_hi = _angle_windows(cluster)
    psi_range = psi_hi - psi_lo
    # absolute-only inner budget: the integrated inner error stays below a
    # quarter of the requested absolute tolerance
    inner_abs = 0.25 * spec.abs_tol / psi_range
    inner_err_rate = 0.0

    def integrand(phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        # (phi nodes, psi columns) grid of density times plane-wave phase
        cpsi = np.cos(psi)[None, :]
        kx = np.cos(phi)[:, None] * cpsi
        ky = np.sin(phi)[:, None] * cpsi
        kz = np.sin(psi)[None, :] + 0.0 * phi[:, None]
        phase = np.exp(1j * k0 * (d[0] * kx + d[1] * ky + d[2] * kz))
        return vmf_pdf(cluster, phi[:, None], psi[None, :]) * phase

    def outer(psi: np.ndarray) -> np.ndarray:
        nonlocal inner_err_rate
        values, errors = _adaptive_panels(
            lambda phi: integrand(phi, psi), phi_lo, phi_hi,
            inner_abs, 0.0, spec.max_subdivisions,
        )
        inner_err_rate = max(inner_err_rate, float(errors.max()))
        return values[:, None]

    total, outer_err = _adaptive_panels(
        outer, psi_lo, psi_hi,
        0.5 * spec.abs_tol, 0.5 * spec.rel_tol, spec.max_subdivisions,
    )
    estimate = complex(total[0])
    achieved = float(outer_err[0]) + inner_err_rate * psi_range
    if achieved > max(spec.abs_tol, spec.rel_tol * abs(estimate)):
        raise QuadratureToleranceError(
            f"achieved error estimate {achieved:.3e} exceeds the requested tolerance",
            estimate=estimate,
            error=achieved,
        )
    return estimate


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

    Realization i draws its n_paths uniforms, then its n_paths tangent angles,
    from its own stream default_rng(SeedSequence(seed, spawn_key=(i,))), so
    its directions are those of sample_vmf(cluster, n_paths, that sequence)
    whatever the evaluation order. The draws are stacked into blocks of
    realizations that are transformed and phase-averaged together; each row
    rounds exactly as it would alone, so seeded results are bit-identical to
    a per-realization loop.
    """
    if n_realizations < 100:
        raise ValueError(f"at least 100 realizations are required, got {n_realizations}")
    if n_paths < 10:
        raise ValueError(f"at least 10 paths are required, got {n_paths}")
    d = _as_displacement(d)
    _check_wavelength(wavelength)
    k0 = TWO_PI / wavelength
    block = max(1, _BLOCK_PATH_SAMPLES // n_paths)
    terms = np.empty(n_realizations, dtype=complex)
    u = np.empty((block, n_paths))
    theta = np.empty((block, n_paths))
    for start in range(0, n_realizations, block):
        rows = min(block, n_realizations - start)
        for row in range(rows):
            seq = np.random.SeedSequence(entropy=seed, spawn_key=(start + row,))
            rng = np.random.default_rng(seq)
            u[row] = rng.random(n_paths)
            theta[row] = rng.uniform(0.0, TWO_PI, n_paths)
        doas = _vmf_directions(cluster, u[:rows], theta[:rows])
        terms[start:start + rows] = np.mean(np.exp(1j * k0 * (doas @ d)), axis=-1)
    estimate = complex(np.mean(terms))
    spread = float(np.sum(np.abs(terms - estimate) ** 2))
    std_error = math.sqrt(spread / (n_realizations * (n_realizations - 1)))
    return estimate, std_error
