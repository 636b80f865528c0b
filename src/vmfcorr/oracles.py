"""Independent verification paths for the closed-form correlation results.

Two routes that never touch the closed form: quadrature of the plane-wave
phase averaged over the angular density, one-dimensional with the average
over the azimuth around the mean taken in closed form as a Bessel J0, and a
Monte-Carlo multipath ensemble built from the generative channel sum.
"""

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .correlation import DomainError, _as_displacement, _check_wavelength, _dot
from .vmf import _HALF_PI, TWO_PI, VmfCluster, _polar_transform, _tangent_basis, sample_vmf

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
    # Batched Kronrod/Gauss evaluation; f maps a node vector to the values
    # there, of one integrand (nodes,) or of several (integrands, nodes)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GK_NODES[None, :]
    vals = f(nodes.reshape(-1))
    vals = vals.reshape(vals.shape[:-1] + nodes.shape)
    k15 = half * np.einsum("n,...pn->...p", _GK_WEIGHTS, vals)
    g7 = half * np.einsum("n,...pn->...p", _G7_WEIGHTS, vals[..., 1::2])
    return k15, np.abs(k15 - g7)


def _adaptive_panels(f, panel_lo: np.ndarray, panel_hi: np.ndarray, k15: np.ndarray,
                     err: np.ndarray, abs_tol: float, rel_tol: float, max_panels: int):
    """Globally adaptive panel subdivision, continued from a pass over the
    panels [panel_lo, panel_hi] whose Kronrod sums are k15 and error
    estimates err.

    f maps a vector of nodes to the integrand there. The panels with the
    largest error estimates are split until the summed error meets the
    tolerances. Returns the integral; raises QuadratureToleranceError when
    the panel budget of max_panels runs out first.
    """
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


def _usable_cpus() -> int:
    # the CPUs this process may run on; an affinity mask can make that fewer
    # than os.cpu_count()
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_MAX_QUADRATURE_KAPPA = 1e6
# Row x node entries of the first adaptive pass evaluated at once.
_CHUNK_ENTRIES = 1 << 15

# Cephes j0.c: for x <= 5, J0(x) = (z - DR1)(z - DR2) RP(z) / RQ(z) with z = x^2,
# DR1 and DR2 the squares of the first two zeros; above 5,
# J0(x) = sqrt(2 / (pi x)) (P cos(x - pi/4) - (5 / x) Q sin(x - pi/4)) with
# P = PP(q) / PQ(q) and Q = QP(q) / QQ(q), q = 25 / x^2. Coefficients run from
# the highest power down; a leading 1.0 is the one Cephes's p1evl implies.
_J0_DR1, _J0_DR2 = 5.78318596294678452118e0, 3.04712623436620863991e1
_J0_RP = (-4.79443220978201773821e9, 1.95617491946556577543e12, -2.49248344360967716204e14,
          9.70862251047306323952e15)
_J0_RQ = (1.0, 4.99563147152651017219e2, 1.73785401676374683123e5, 4.84409658339962045305e7,
          1.11855537045356834862e10, 2.11277520115489217587e12, 3.10518229857422583814e14,
          3.18121955943204943306e16, 1.71086294081043136091e18)
_J0_PP = (7.96936729297347051624e-4, 8.28352392107440799803e-2, 1.23953371646414299388e0,
          5.44725003058768775090e0, 8.74716500199817011941e0, 5.30324038235394892183e0,
          9.99999999999999997821e-1)
_J0_PQ = (9.24408810558863637013e-4, 8.56288474354474431428e-2, 1.25352743901058953537e0,
          5.47097740330417105182e0, 8.76190883237069594232e0, 5.30605288235394617618e0,
          1.00000000000000000218e0)
_J0_QP = (-1.13663838898469149931e-2, -1.28252718670509318512e0, -1.95539544257735972385e1,
          -9.32060152123768231369e1, -1.77681167980488050595e2, -1.47077505154951170175e2,
          -5.14105326766599330220e1, -6.05014350600728481186e0)
_J0_QQ = (1.0, 6.43178256118178023184e1, 8.56430025976980587198e2, 3.88240183605401609683e3,
          7.24046774195652478189e3, 5.93072701187316984827e3, 2.06209331660327847417e3,
          2.42005740240291393179e2)


def _bessel_j0(x: np.ndarray) -> np.ndarray:
    """The Bessel function J0 of each entry of x >= 0, by Cephes's rational
    approximations (np.polyval is Cephes's polevl); J0(0) is exactly 1.
    q = (5 / x)^2 in place of Cephes's 25 / (x x) keeps every finite x from
    overflowing."""
    value = np.empty_like(x)
    near = x <= 5.0
    z = x[near] * x[near]
    value[near] = ((z - _J0_DR1) * (z - _J0_DR2) * np.polyval(_J0_RP, z)
                   / np.polyval(_J0_RQ, z))
    far = x[~near]
    w = 5.0 / far
    q = w * w
    p = np.polyval(_J0_PP, q) / np.polyval(_J0_PQ, q)
    q = np.polyval(_J0_QP, q) / np.polyval(_J0_QQ, q)
    phase = far - 0.25 * math.pi
    value[~near] = ((p * np.cos(phase) - w * q * np.sin(phase)) * math.sqrt(2.0 / math.pi)
                    / np.sqrt(far))
    return value


def scf_quadrature(
    cluster: VmfCluster, d, wavelength: float, spec: QuadratureSpec | None = None
):
    """Spatial correlation by direct numerical integration.

    Averages exp(j (2 pi / lam) doa . d) over the cluster's angular density in
    the frame of the mean direction: doa = (1 - s) mu + rho (cos a e1 + sin a e2)
    with rho = sqrt(s (2 - s)), where the density depends on s = 1 - cos(polar)
    alone. The azimuth average is taken in closed form,
    (1 / 2 pi) int exp(j z cos a) da = J0(z) (Abramowitz & Stegun 9.1.18),
    with z = rho k0 |d across mu|, so the integral left is one-dimensional:
    the density times exp(j k0 (mu . d) (1 - s)) J0(z) over s, by adaptively
    subdivided Gauss-Kronrod panels. A 3-vector d gives a complex; an array of
    shape (n, 3) gives a complex array of shape (n,), each entry equal, bit
    for bit, to the call on its row alone.

    The first adaptive pass runs over a block of rows at a time; the rows it
    leaves short of the tolerance are then refined one at a time, in order.

    Raises QuadratureToleranceError if the requested accuracy cannot be
    certified within the panel budget, with the error of the first row that
    fails, or, before any work, if the phase k0 d of some row overflows (with
    estimate nan and error inf); ValueError for concentrations beyond 1e6.
    """
    if spec is None:
        spec = QuadratureSpec()
    d = _as_displacement(d, batch=True)
    if d.ndim > 2:
        raise ValueError("displacements must be a 3-vector or an (n, 3) array in meters")
    _check_wavelength(wavelength)
    kappa = cluster.kappa
    if kappa > _MAX_QUADRATURE_KAPPA:
        raise ValueError(f"concentration {kappa} is outside the supported quadrature range")
    k0 = TWO_PI / wavelength
    mean = cluster.mean_direction
    e1, e2 = _tangent_basis(mean)
    # past s = 45 / kappa the density, and the tail mass left out, are below
    # e^-45 of the peak
    s_max = min(2.0, 45.0 / kappa) if kappa > 0.0 else 2.0
    log_norm = math.log(kappa / -math.expm1(-2.0 * kappa)) if kappa > 0.0 else math.log(0.5)

    rows = d.reshape(-1, 3)
    # a phase past the largest double leaves nothing to integrate; hypot, not
    # the root of a sum of squares, overflows only where across itself does
    with np.errstate(over="ignore", invalid="ignore"):
        along = k0 * _dot(rows, mean)
        across = k0 * np.hypot(_dot(rows, e1), _dot(rows, e2))
    if not (np.isfinite(along).all() and np.isfinite(across).all()):
        raise QuadratureToleranceError(
            "the phase k0 d overflows", estimate=complex(math.nan, math.nan), error=math.inf)

    def integrand(s: np.ndarray, part: slice) -> np.ndarray:
        # density kappa e^(-kappa s) / (1 - e^(-2 kappa)) over s, times the
        # phase along the mean, times the azimuth average, at the nodes s of
        # each row in part
        rho = np.sqrt(s * (2.0 - s))
        return (np.exp(log_norm - kappa * s + 1j * along[part, None] * (1.0 - s))
                * _bessel_j0(rho * across[part, None]))

    edges = np.linspace(0.0, s_max, min(_INITIAL_PANELS, spec.max_subdivisions) + 1)
    panel_lo, panel_hi = edges[:-1], edges[1:]
    per_block = max(1, _CHUNK_ENTRIES // (panel_lo.size * _GK_NODES.size))
    values = np.empty(len(rows), dtype=complex)
    for start in range(0, len(rows), per_block):
        part = slice(start, start + per_block)
        k15, err = _panel_rule(lambda s: integrand(s, part), panel_lo, panel_hi)
        # the first test of _adaptive_panels, row by row; the rows short of
        # the tolerance are refined from there, in order
        total = k15.sum(axis=1)
        allowed = np.maximum(spec.abs_tol, spec.rel_tol * np.hypot(total.real, total.imag))
        values[part] = total
        for j in np.flatnonzero(~(err.sum(axis=1) <= allowed)):
            row = slice(start + j, start + j + 1)
            values[row] = _adaptive_panels(
                lambda s: integrand(s, row)[0], panel_lo, panel_hi,
                k15[j], err[j], spec.abs_tol, spec.rel_tol, spec.max_subdivisions)
    return complex(values[0]) if d.ndim == 1 else values


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


def _cos_sin(x: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos x, sin x) by the tangent half-angle: with t = tan(x / 2) and
    r = 2 / (1 + t^2), cos x = r - 1 and sin x = t r. The cosine is written
    into scratch and the sine into x, so no new array is made. numpy runs
    float64 tan as SIMD code where the CPU has AVX-512, and sin and cos as
    scalar code, so this costs a fraction of np.cos and np.sin; it differs
    from them at rounding level. |tan| of a double stays below about 1.6e16,
    so t^2 never overflows, and x = -0.0 keeps its sign in the sine."""
    t = np.multiply(x, 0.5, out=x)
    np.tan(t, out=t)
    r = np.multiply(t, t, out=scratch)
    r += 1.0
    np.divide(2.0, r, out=r)
    t *= r
    r -= 1.0
    return r, t


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
    n_paths tangent angles theta_rng.uniform(-pi / 2, pi / 2,
    (n_realizations, n_paths))[i]. The phase is evaluated in the frame of
    the mean direction mu without building the directions: with along =
    k0 (mu . d), across = k0 |d - (mu . d) mu|, w from u by the sampler's
    polar transform and sp = sqrt(1 - w^2), a path's phase relative to
    along is along (w - 1) + across sp sin(phi). Over a half turn sin(phi)
    has the arcsine law of the cosine of a uniform angle over a full turn,
    and the shift keeps the phase short, of order 1 for a concentrated
    cluster, where the trigonometric functions cost least. Every cosine and
    sine, of phi and of the phase, comes from tan(x / 2) by _cos_sin, which
    costs a fraction of np.cos and np.sin where numpy runs tan as AVX-512
    code. A realization's term is mean(cos phase) + j mean(sin phase); the
    estimate is the mean of the terms rotated once by exp(j along), and its
    standard error, which the rotation leaves unchanged, is that of the
    terms. The rows are drawn and averaged in blocks of about 16k path
    samples; each row rounds
    exactly as it would alone, so seeded results do not depend on the block
    size, and two displacements with the same along and across, such as
    rotations of each other about mu, give equal results. They differ from
    the 0.3.x releases, which drew theta over [0, 2 pi) and formed the
    unshifted phase along w + across sp cos(theta).

    The blocks are evaluated on every CPU the process may use, by the
    calling thread and up to one helper thread per further CPU, never more
    threads than blocks. Blocks are drawn from the streams in block order
    and each writes only its own rows, so the result is bit-identical for
    any CPU count. Both identities hold on one machine and numpy build: numpy
    dispatches log1p and tan by CPU feature, and with AVX-512 off a seeded
    value can move by an ulp. The half-angle form moved seeded values from
    the earlier np.cos and np.sin evaluation at rounding level only, with
    the draws and the phase unchanged. An exception raised in any block
    stops the hand-out of blocks and is raised by this call once every
    helper has finished.

    Raises DomainError, before any draw, if the phase k0 d overflows, or
    if a path's phase could: where 2 |along| + across is not a finite double.
    """
    if n_realizations < 100:
        raise ValueError(f"at least 100 realizations are required, got {n_realizations}")
    if n_paths < 10:
        raise ValueError(f"at least 10 paths are required, got {n_paths}")
    d = _as_displacement(d)
    _check_wavelength(wavelength)
    k0 = TWO_PI / wavelength
    mean = cluster.mean_direction
    with np.errstate(over="ignore", invalid="ignore"):
        projection = float(mean @ d)
        along = k0 * projection
        across = k0 * math.hypot(*(d - projection * mean))
    # 2 |along| + across bounds |along (w - 1) + across sp sin(phi)|, the
    # phase of every path sample, since |w - 1| <= 2
    if not math.isfinite(2.0 * abs(along) + across):
        raise DomainError("the phase k0 d overflows")
    block = max(1, _BLOCK_PATH_SAMPLES // n_paths)
    blocks = range(0, n_realizations, block)
    starts = iter(blocks)
    u_rng, theta_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    real = np.empty(n_realizations)
    imag = np.empty(n_realizations)
    lock = threading.Lock()
    errors = []

    def draw():
        # the next block's start and draws, or None once the blocks are done
        # or one has failed; under the lock, so the streams are read in block
        # order whichever thread asks
        with lock:
            start = None if errors else next(starts, None)
            if start is None:
                return None
            rows = min(block, n_realizations - start)
            return (start, u_rng.random((rows, n_paths)),
                    theta_rng.uniform(-_HALF_PI, _HALF_PI, (rows, n_paths)))

    def evaluate(start, u, phi):
        # a function of its own, so that a thread holds none of a finished
        # block's arrays while it draws the next
        w, sin_polar = _polar_transform(cluster.kappa, u)
        # phase = along (w - 1) + across sp sin(phi), in place, with the
        # spent uniforms u as scratch
        w -= 1.0
        phase = np.multiply(w, along, out=w)
        sin_polar *= across
        sin_polar *= _cos_sin(phi, u)[1]
        phase += sin_polar
        cos_phase, sin_phase = _cos_sin(phase, u)
        stop = start + u.shape[0]
        real[start:stop] = np.mean(cos_phase, axis=-1)
        imag[start:stop] = np.mean(sin_phase, axis=-1)

    def work():
        try:
            while (item := draw()) is not None:
                evaluate(*item)
        except BaseException as exc:  # raised again by the calling thread
            with lock:
                errors.append(exc)

    helpers = []
    try:
        for _ in range(min(_usable_cpus(), len(blocks)) - 1):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    estimate = complex(np.mean(real), np.mean(imag))
    spread = float(np.sum((real - estimate.real) ** 2) + np.sum((imag - estimate.imag) ** 2))
    std_error = math.sqrt(spread / (n_realizations * (n_realizations - 1)))
    return estimate * complex(math.cos(along), math.sin(along)), std_error
