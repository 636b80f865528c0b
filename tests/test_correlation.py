import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from vmfcorr import (
    SPEED_OF_LIGHT,
    DecorrelationNotFound,
    DomainError,
    MotionState,
    RadarScenario,
    VmfCluster,
    acf,
    angles_from_direction,
    decorrelation_table,
    decorrelation_time,
    doppler_params,
    scf,
    scf_exact_log,
    scf_isotropic,
    scf_large_kappa,
    scf_montecarlo,
    scf_multicluster,
)
from vmfcorr import correlation
from vmfcorr.correlation import (_FIRST_WINDOW, _SCAN_WINDOW, LARGE_KAPPA_THRESHOLD, _Terms,
                                  _closed_form, _crossing_floor, _decorrelation_times)
from vmfcorr.vmf import (TWO_PI, _direction_variances, _log_kappa_over_sinh, csinc_sqrt,
                         direction_from_angles)

from mp_reference import reference_log, relative_error

LAM = 0.3


def _terms(kappa, mean, d, lam):
    """The kernel's shared terms at concentrations kappa, mean directions mean and
    displacements d, each array-like."""
    return _Terms(np.asarray(kappa, dtype=float), np.asarray(mean, dtype=float),
                  np.asarray(d, dtype=float), lam)


def _radicand(kappa, mean, d, lam):
    """The kernel's sinc radicand, refused with DomainError out of domain."""
    return correlation._radicand(_terms(kappa, mean, d, lam))


def _search(clusters, motions, lam, monostatic, threshold, horizon=None):
    """_decorrelation_times of (cluster, motion) cells, each with its own mean
    direction and heading."""
    return _decorrelation_times(np.array([c.kappa for c in clusters]),
                                np.array([m.speed for m in motions]),
                                np.array([c.mean_direction for c in clusters]),
                                np.array([direction_from_angles(m.phi_v, m.psi_v)
                                          for m in motions]),
                                lam, monostatic, threshold, horizon)


def beta_displacement(cluster, beta, distance):
    """Displacement of the given length at angle beta from the mean direction."""
    mean = cluster.mean_direction
    helper = np.array([0.0, 0.0, 1.0]) if abs(mean[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    tangent = np.cross(helper, mean)
    tangent /= np.linalg.norm(tangent)
    return distance * (math.cos(beta) * mean + math.sin(beta) * tangent)


def random_cluster(rng, max_kappa=100.0):
    return VmfCluster(
        mu_phi=rng.uniform(-math.pi, math.pi),
        mu_psi=rng.uniform(-math.pi / 2, math.pi / 2),
        kappa=rng.uniform(0.0, max_kappa),
    )


class TestScfArgument:
    """The sinc argument of the closed form: the radicand w and its square
    root z with nonpositive imaginary part."""

    def test_zero_displacement(self):
        cluster = VmfCluster(0.4, -0.3, 5.0)
        w = _radicand(cluster.kappa, cluster.mean_direction, np.zeros(3), LAM)
        assert w == pytest.approx(-25.0)

    def test_isotropic_coefficients(self):
        w = _radicand(0.0, (1.0, 0.0, 0.0), np.array([LAM / 2, 0.0, 0.0]), LAM)
        assert w == pytest.approx(math.pi**2)

    def test_along_mean_example(self):
        w = _radicand(10.0, (1.0, 0.0, 0.0), np.array([LAM, 0.0, 0.0]), LAM)
        expected = complex(4 * math.pi**2 - 100.0, -40.0 * math.pi)
        assert complex(w) == pytest.approx(expected, rel=1e-13)

    def test_branch_has_nonpositive_imag(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            cluster = random_cluster(rng, max_kappa=1e5)
            cluster = replace(cluster, kappa=700.0 + cluster.kappa)
            d = rng.normal(size=(20, 3)) * LAM
            # the large-kappa form takes jz = sqrt(-w), so z = -j sqrt(-w)
            jz = np.sqrt(-_radicand(cluster.kappa, cluster.mean_direction, d, LAM))
            assert np.all(jz.real >= 0.0)

    def test_bad_wavelength(self):
        with pytest.raises(ValueError):
            _radicand(1.0, (1.0, 0.0, 0.0), np.array([0.1, 0, 0]), 0.0)


class TestScf:
    def test_unit_at_zero_displacement(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            cluster = random_cluster(rng, max_kappa=1e5)
            assert scf(cluster, (0.0, 0.0, 0.0), LAM) == 1.0 + 0.0j

    def test_isotropic_zero(self):
        value = scf(VmfCluster(0.9, 0.4, 0.0), (LAM / 2, 0.0, 0.0), LAM)
        assert abs(value) < 1e-14

    def test_isotropic_special_case(self):
        assert scf_isotropic(0.0, LAM) == 1.0
        assert abs(scf_isotropic(LAM / 2, LAM)) < 1e-15
        assert abs(scf_isotropic(LAM, LAM)) < 1e-15
        # 2 r overflows past 9e307 m, and |d| past 1.8e308 m, where r / lambda does not
        assert scf_isotropic(1.5e308, 1e300) == np.sinc(3e8)
        assert scf(VmfCluster(0.0, 0.0, 0.0), (1.5e308, 1.5e308, 0.0), 1e308) == pytest.approx(
            np.sinc(2.0 * math.hypot(1.5, 1.5)), abs=1e-15)
        cluster = VmfCluster(1.2, -0.7, 0.0)
        rng = np.random.default_rng(32)
        for _ in range(50):
            d = rng.normal(size=3) * LAM
            assert scf(cluster, d, LAM) == pytest.approx(
                scf_isotropic(float(np.linalg.norm(d)), LAM), abs=1e-15
            )

    def test_isotropic_is_real(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            d = rng.normal(size=3) * 3 * LAM
            assert abs(scf(VmfCluster(0.5, 0.1, 0.0), d, LAM).imag) < 1e-14

    def test_continuous_extension_near_zero(self):
        cluster = VmfCluster(0.3, 0.2, 1e-8)
        for frac in np.linspace(0.0, 3.0, 16):
            d = beta_displacement(cluster, 0.7, frac * LAM)
            gap = abs(scf(cluster, d, LAM) - scf_isotropic(float(np.linalg.norm(d)), LAM))
            assert gap < 1e-6

    def test_matches_log_domain_exact(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            cluster = random_cluster(rng, max_kappa=500.0)
            d = rng.normal(size=3) * 2 * LAM
            assert relative_error(scf(cluster, d, LAM), cluster, d, LAM) <= 1e-11

    def test_bounded(self):
        rng = np.random.default_rng(35)
        for _ in range(300):
            cluster = VmfCluster(
                rng.uniform(-math.pi, math.pi),
                rng.uniform(-math.pi / 2, math.pi / 2),
                10.0 ** rng.uniform(-2, 5),
            )
            d = rng.normal(size=3)
            d *= rng.uniform(0, 10) * LAM / np.linalg.norm(d)
            value = scf(cluster, d, LAM)
            assert abs(value) <= 1.0 + 1e-12
            assert math.isfinite(value.real) and math.isfinite(value.imag)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            cluster = random_cluster(rng)
            d = rng.normal(size=3) * 3 * LAM
            forward = scf(cluster, d, LAM)
            backward = scf(cluster, -d, LAM)
            assert abs(backward - forward.conjugate()) <= 1e-13 * max(1.0, abs(forward))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            cluster = random_cluster(rng, max_kappa=50.0)
            d = rng.normal(size=3) * 2 * LAM
            rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(rotation) < 0:
                rotation[:, 0] *= -1
            phi, psi = angles_from_direction(rotation @ cluster.mean_direction)
            rotated = VmfCluster(phi, psi, cluster.kappa)
            a = scf(cluster, d, LAM)
            b = scf(rotated, rotation @ d, LAM)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))

    def test_directional_ordering(self):
        cluster = VmfCluster(0.6, 0.25, 10.0)
        aligned = abs(scf(cluster, beta_displacement(cluster, 0.0, LAM), LAM))
        perpendicular = abs(scf(cluster, beta_displacement(cluster, math.pi / 2, LAM), LAM))
        assert aligned > perpendicular


class TestLargeKappa:
    def test_unit_at_zero_displacement(self):
        value = scf_large_kappa(VmfCluster(0.0, 0.0, 300.0), (0.0, 0.0, 0.0), LAM)
        assert abs(value - 1.0) < 1e-10
        wide = VmfCluster(0.0, math.radians(20.0), 13131.55873845995)
        assert abs(scf_large_kappa(wide, (0.0, 0.0, 0.0), LAM) - 1.0) < 1e-10

    def test_matches_plain_path_at_300(self):
        cluster = VmfCluster(0.8, -0.5, 300.0)
        rng = np.random.default_rng(41)
        for _ in range(100):
            d = rng.normal(size=3)
            d *= rng.uniform(0.05, 3.0) * LAM / np.linalg.norm(d)
            assert relative_error(scf_large_kappa(cluster, d, LAM), cluster, d, LAM) <= 1e-8

    @pytest.mark.parametrize("kappa", [200.0, 400.0, 700.0])
    def test_matches_log_domain_exact(self, kappa):
        cluster = VmfCluster(1.3, 0.4, kappa)
        rng = np.random.default_rng(int(kappa))
        for _ in range(100):
            d = rng.normal(size=3)
            d *= rng.uniform(0.1, 3.0) * LAM / np.linalg.norm(d)
            assert relative_error(scf_large_kappa(cluster, d, LAM), cluster, d, LAM) <= 1e-8

    def test_dispatch_above_threshold(self):
        cluster = VmfCluster(0.2, 0.1, 2000.0)
        d = beta_displacement(cluster, 0.5, LAM)
        assert scf(cluster, d, LAM) == scf_large_kappa(cluster, d, LAM)

    def test_requires_positive_kappa(self):
        with pytest.raises(ValueError):
            scf_large_kappa(VmfCluster(0, 0, 0.0), (LAM, 0, 0), LAM)

    @pytest.mark.parametrize("lam", [1.0, 0.5])
    def test_zero_sinc_argument(self, lam):
        # transverse displacement of length kappa / k0 makes the radicand exactly 0,
        # where the closed form is kappa / sinh(kappa), which underflows
        cluster = VmfCluster(0.0, 0.0, 1000.0)
        d = (0.0, 1000.0 * lam / (2 * math.pi), 0.0)
        assert _radicand(cluster.kappa, cluster.mean_direction, np.array(d), lam) == 0.0
        assert scf(cluster, d, lam) == 0.0
        assert scf_large_kappa(cluster, d, lam) == 0.0

    @pytest.mark.parametrize("kappa", [1e3, 1e6, 1e12, 1e16, 1e20, 1e100, 1e150])
    @pytest.mark.parametrize("x_per_kappa", [0.01, 1.0, math.sqrt(3.0), 100.0])
    def test_exact_axis(self, kappa, x_per_kappa):
        # the mean is exactly (1, 0, 0) and k0 = 2 pi / TWO_PI exactly 1, so k0 d = x lies
        # exactly along the mean: w = -(kappa + jx)^2 and R = e^(jx) kappa / (kappa + jx),
        # less a term of e^(-2 kappa). Along the mean a = x^2 and b = kappa x cancel in
        # Re(jz - kappa), which the kernel must therefore never form from them.
        cluster = VmfCluster(0.0, 0.0, kappa)
        for x in (x_per_kappa * kappa, -x_per_kappa * kappa):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = scf(cluster, (x, 0.0, 0.0), TWO_PI)
            with mp.workdps(40):
                exact = mp.exp(1j * mp.mpf(x)) * kappa / (kappa + 1j * mp.mpf(x))
                assert abs(mp.mpc(value) - exact) <= 1e-13 * abs(exact)


class TestMulticluster:
    def test_single_cluster_identity(self):
        cluster = VmfCluster(0.3, 0.1, 7.0)
        d = (0.4 * LAM, 0.1 * LAM, -0.2 * LAM)
        assert scf_multicluster([cluster], d, LAM) == scf(cluster, d, LAM)

    def test_identical_split_matches_single(self):
        d = (0.6 * LAM, 0.0, 0.2 * LAM)
        a = VmfCluster(0.3, 0.1, 7.0, power=0.3)
        b = VmfCluster(0.3, 0.1, 7.0, power=0.7)
        merged = scf_multicluster([a, b], d, LAM)
        single = scf(VmfCluster(0.3, 0.1, 7.0), d, LAM)
        assert merged == pytest.approx(single, rel=1e-14)

    def test_equal_power_mixture_is_mean(self):
        d = (LAM, 0.0, 0.0)
        a = VmfCluster(0.0, 0.0, 10.0, power=0.5)
        b = VmfCluster(math.pi, 0.0, 10.0, power=0.5)
        mixture = scf_multicluster([a, b], d, LAM)
        mean = 0.5 * (scf(replace(a, power=1.0), d, LAM) + scf(replace(b, power=1.0), d, LAM))
        assert mixture == pytest.approx(mean, rel=1e-14)

    def test_mixture_identity(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            n = rng.integers(1, 5)
            powers = rng.uniform(0.1, 1.0, n)
            powers /= powers.sum()
            clusters = [
                VmfCluster(
                    rng.uniform(-math.pi, math.pi),
                    rng.uniform(-math.pi / 2, math.pi / 2),
                    rng.uniform(0, 50),
                    power=p,
                )
                for p in powers
            ]
            d = rng.normal(size=3) * 2 * LAM
            combined = scf_multicluster(clusters, d, LAM)
            expected = sum(c.power * scf(replace(c, power=1.0), d, LAM) for c in clusters)
            assert abs(combined - expected) <= 1e-13

    def test_unit_at_zero(self):
        clusters = [VmfCluster(0, 0, 3.0, 0.25), VmfCluster(1, 0.3, 9.0, 0.75)]
        assert scf_multicluster(clusters, (0, 0, 0), LAM) == 1.0 + 0.0j

    def test_power_normalization_enforced(self):
        with pytest.raises(ValueError):
            scf_multicluster(
                [VmfCluster(0, 0, 1.0, 0.5), VmfCluster(0, 0, 2.0, 0.4)], (0, 0, 0), LAM
            )
        with pytest.raises(ValueError):
            scf_multicluster([], (0, 0, 0), LAM)


def _regime_displacements(kappa, lam):
    """Displacements that reach every regime of a cluster with mean along +x:
    d = 0, |w| just below and just above the series radius 0.25, w = 0, and
    random directions at up to three wavelengths."""
    k0 = 2 * math.pi / lam
    rows = [(0.0, 0.0, 0.0), (0.0, kappa / k0, 0.0)]
    for s in (-0.25, 0.25):
        for eps in (-1e-9, 1e-9):
            if kappa**2 + s * (1 + eps) > 0.0:
                rows.append((0.0, math.sqrt(kappa**2 + s * (1 + eps)) / k0, 0.0))
    random = np.random.default_rng(int(kappa * 1000) + 7).normal(size=(11, 3)) * lam
    return np.vstack([rows, random])


@pytest.mark.parametrize("kappa", [0.0, 0.5, 5.0, 700.0, 700.001, 1000.0])
def test_array_calls_match_scalar_calls(kappa):
    lam = 1.0
    cluster = VmfCluster(0.0, 0.0, kappa)
    d = _regime_displacements(kappa, lam)
    mixture = [replace(cluster, power=0.3), VmfCluster(1.0, -0.4, 20.0, power=0.7)]
    for values, scalar in (
        (scf(cluster, d, lam), lambda v: scf(cluster, v, lam)),
        (scf_multicluster(mixture, d, lam), lambda v: scf_multicluster(mixture, v, lam)),
    ):
        assert values.shape == (len(d),)
        for entry, v in zip(values, d):
            assert entry == scalar(v)
    grid = d[:12].reshape(2, 2, 3, 3)
    assert np.array_equal(scf(cluster, grid, lam), scf(cluster, d[:12], lam).reshape(2, 2, 3))

    motion = MotionState(30.0, 1.1, 0.2)
    lags = np.linspace(0.0, 0.2, 12).reshape(3, 4)
    for monostatic in (False, True):
        values = acf(cluster, motion, lags, lam, monostatic)
        assert values.shape == (3, 4)
        for entry, lag in zip(values.ravel(), lags.ravel()):
            assert entry == acf(cluster, motion, float(lag), lam, monostatic)


def _one_cluster_reference(cluster, d, lam):
    """The closed form at one displacement, with the cluster's constants as
    Python floats and every array of length one: the scalar evaluation that
    batched calls must reproduce bit for bit."""
    d = np.array([d], dtype=float)
    if not d.any():
        return 1.0 + 0.0j
    kappa, mean, k0 = cluster.kappa, cluster.mean_direction, TWO_PI / lam
    dd = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
    dm = d[:, 0] * mean[0] + d[:, 1] * mean[1] + d[:, 2] * mean[2]
    a, b = (k0 * k0) * dd, kappa * k0 * dm
    w = a - kappa**2 - 2.0j * b
    if kappa == 0.0:
        value = np.sinc(2.0 * np.sqrt(dd) / lam)
    elif kappa <= LARGE_KAPPA_THRESHOLD:
        value = math.exp(_log_kappa_over_sinh(kappa)) * csinc_sqrt(w)
    else:
        x_par = k0 * dm
        across = d - dm[:, None] * mean
        x_perp2 = (k0 * k0) * (across[:, 0] * across[:, 0] + across[:, 1] * across[:, 1]
                               + across[:, 2] * across[:, 2])
        jz = np.sqrt(-w)
        exponent = 1j * (x_par + x_perp2 / (x_par - 1j * (kappa + jz))) + math.log(kappa)
        factor = (1.0 - np.exp(-2.0 * jz)) / jz if w[0] != 0.0 else 2.0
        value = np.exp(exponent) * factor
    return complex(value[0])


def _kappas_numpy_rounds_differently():
    """Concentrations at which numpy would round a per-cluster constant
    differently from Python's math: kappa**2, log kappa (above 700) and
    kappa / sinh kappa (up to 700)."""
    rng = np.random.default_rng(3)
    large, moderate = rng.uniform(700.0, 1e5, 20000), rng.uniform(0.0, 700.0, 200)
    ratio = np.array([_log_kappa_over_sinh(k) for k in moderate.tolist()])
    picks = [
        large[large**2 != np.array([k**2 for k in large.tolist()])],
        large[np.log(large) != np.array([math.log(k) for k in large.tolist()])],
        moderate[np.exp(ratio) != np.array([math.exp(r) for r in ratio.tolist()])],
    ]
    return [float(pick[0]) for pick in picks if pick.size]


def test_mixed_batch_matches_scalar_calls():
    # one kernel call whose kappa and mean direction change from point to
    # point, across every regime boundary
    lam = 1.0
    kappas = [0.0, 0.5, 700.0, 700.001, 1e5, *_kappas_numpy_rounds_differently()]
    points = [(VmfCluster(phi, psi, kappa), d)
              for kappa in kappas
              for phi, psi in ((0.0, 0.0), (1.0, -0.4))
              for d in _regime_displacements(kappa, lam)]
    clusters, d = zip(*points)
    values = _closed_form([c.kappa for c in clusters], [c.mean_direction for c in clusters],
                          d, lam)
    assert values.shape == (len(points),)
    for entry, (cluster, v) in zip(values, points):
        assert entry == scf(cluster, v, lam) == _one_cluster_reference(cluster, v, lam)
    # kappa of shape (K, 1) over all the displacements, as scf_multicluster
    # stacks its clusters: row k equals the one-cluster call
    mean = clusters[-1].mean_direction
    values = _closed_form(np.reshape(kappas, (-1, 1)), mean, d, lam)
    for row, kappa in zip(values, kappas):
        assert np.array_equal(row, scf(VmfCluster(1.0, -0.4, kappa), d, lam))


def _probe(fn, kappa, x):
    """fn at kappa, mean along x, and d = x wavelengths along x, at wavelength 1."""
    cluster, d = VmfCluster(0.0, 0.0, kappa), np.array([x, 0.0, 0.0])
    if fn is scf_multicluster:
        return fn([cluster], d, 1.0)
    if fn is acf:
        return fn(cluster, MotionState(1.0), x, 1.0)
    return fn(cluster, d, 1.0)


def _radar_probe(width_deg, speed_kmh):
    base = RadarScenario(1e10, math.radians(20.0), math.radians(width_deg), speed_kmh / 3.6)
    return decorrelation_table([base.target_angular_width], [base.target_speed], base)


# Radicands past the double range in each regime (isotropic, sinh, large
# kappa, and a kappa whose square overflows), radar tables whose
# concentration, radicand or default search horizon is not a finite double,
# and a Monte-Carlo phase that overflows: each raises one DomainError that
# names the point, with no warning first.
_OUT_OF_DOMAIN = [
    pytest.param(partial(_probe, fn, kappa, x), f"kappa = {kappa:g}, |d| = {x:g} wavelengths",
                 id=f"{fn.__name__}-kappa={kappa:g}-x={x:g}")
    for fn in (scf, scf_multicluster, acf, scf_large_kappa, scf_exact_log)
    for kappa, x in ((0.0, 1e200), (10.0, 1e200), (1000.0, 1e200), (1e155, 1e-3))
    if kappa > 0.0 or fn not in (scf_large_kappa, scf_exact_log)
] + [
    pytest.param(partial(_radar_probe, 1e-150, 40.0), "at kappa = 5.25249e+304, |d| = ",
                 id="radar-width=1e-150deg"),
    pytest.param(partial(_radar_probe, 1e-200, 40.0),
                 f"angular width {math.radians(1e-200)} is too narrow", id="radar-width=1e-200deg"),
    pytest.param(partial(_radar_probe, 0.25, 1e-305), "got inf s at kappa = 840399, speed = ",
                 id="radar-speed=1e-305kmh"),
    pytest.param(partial(scf_montecarlo, VmfCluster(0.0, 0.0, 10.0), (1e300, 0.0, 0.0), 1e-10,
                         16, 100, 1), "the phase k0 d overflows", id="montecarlo-phase"),
]


@pytest.mark.parametrize("call, point", _OUT_OF_DOMAIN)
def test_out_of_domain_is_one_answer(call, point):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            call()
    assert point in str(info.value)


class TestDoppler:
    def test_zero_speed(self):
        params = doppler_params(VmfCluster(0, 0, 1.0), MotionState(0.0, 1.0, 0.2), LAM)
        assert params.f_m == 0.0 and params.f_mu == 0.0

    def test_aligned_motion(self):
        cluster = VmfCluster(0.4, 0.2, 5.0)
        motion = MotionState(12.0, 0.4, 0.2)
        params = doppler_params(cluster, motion, LAM)
        assert params.f_m == pytest.approx(12.0 / LAM)
        assert params.f_mu == pytest.approx(params.f_m, rel=1e-12)

    def test_monostatic_radar_numbers(self):
        # 10 GHz carrier, 150 km/h, 20 degrees between arrival direction and velocity
        lam = 299_792_458.0 / 10e9
        speed = 150.0 / 3.6
        cluster = VmfCluster(0.0, math.radians(20.0), 100.0)
        motion = MotionState(speed, 0.0, 0.0)
        params = doppler_params(cluster, motion, lam, monostatic=True)
        assert params.f_m == pytest.approx(2 * speed / lam)
        assert params.f_m == pytest.approx(2779.7, rel=1e-4)
        assert params.f_mu == pytest.approx(params.f_m * math.cos(math.radians(20.0)))


class TestAcf:
    def test_unit_at_zero_lag(self):
        cluster = VmfCluster(0.2, -0.1, 20.0)
        motion = MotionState(10.0, 0.7, 0.1)
        assert acf(cluster, motion, 0.0, LAM) == 1.0 + 0.0j

    def test_isotropic_is_real_sinc(self):
        motion = MotionState(8.0, 0.3, 0.0)
        f_m = motion.speed / LAM
        for dt in np.linspace(0.0, 0.2, 9):
            value = acf(VmfCluster(0, 0, 0.0), motion, dt, LAM)
            assert value.imag == 0.0
            assert value.real == pytest.approx(
                float(np.sinc(2 * f_m * dt)), abs=1e-14
            )

    def test_matches_scf_under_displacement_map(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            cluster = random_cluster(rng)
            motion = MotionState(
                rng.uniform(0.1, 40.0),
                rng.uniform(-math.pi, math.pi),
                rng.uniform(-math.pi / 2, math.pi / 2),
            )
            dt = rng.uniform(0.0, 0.05)
            for monostatic in (False, True):
                factor = 2.0 if monostatic else 1.0
                a = acf(cluster, motion, dt, LAM, monostatic)
                b = scf(cluster, factor * dt * motion.velocity, LAM)
                assert abs(a - b) <= 1e-13

    def test_monostatic_lag_past_half_the_double_range(self):
        # 2 dt overflows past 9e307 s, while the displacement 2 dt v is about a wavelength
        cluster = VmfCluster(0.3, 0.2, 5.0)
        motion = MotionState(1e-309, 0.7, 0.1)
        dt = 1.5e308
        d = [float(2 * Fraction(dt) * Fraction(float(v))) for v in motion.velocity]
        assert relative_error(acf(cluster, motion, dt, LAM, monostatic=True), cluster, d,
                              LAM) < 1e-12


class TestCarrierAt1e300Hz:
    """At 1e300 Hz, k0 = 2.1e292 / m: k0^2 overflows and |d|^2 underflows,
    while k0 |d| and R are ordinary numbers."""

    LAM = SPEED_OF_LIGHT / 1e300

    @pytest.mark.parametrize("kappa", [0.0, 1000.0])
    def test_scf_and_acf_against_mpmath(self, kappa):
        cluster = VmfCluster(0.4, 0.3, kappa)
        rng = np.random.default_rng(41)
        ds = rng.normal(size=(40, 3))
        ds *= (rng.uniform(0.02, 3.0, 40) * self.LAM / np.linalg.norm(ds, axis=1))[:, None]
        motion = MotionState(1.0, 0.7, 0.1)
        dts = np.linspace(0.0, 3e-292, 4)
        cases = [*zip(scf(cluster, ds, self.LAM), ds),
                 *zip(acf(cluster, motion, dts, self.LAM), dts[:, None] * motion.velocity)]
        for value, d in cases:
            with mp.workdps(40):
                reference = mp.exp(reference_log(cluster, d, self.LAM))
                assert abs(mp.mpc(value) - reference) <= 1e-14, d


class TestDecorrelationTime:
    def test_isotropic_crossing(self):
        motion = MotionState(5.0, 0.0, 0.0)
        cluster = VmfCluster(0.0, 0.0, 0.0)
        t = decorrelation_time(cluster, motion, LAM, threshold=0.5)
        f_m = motion.speed / LAM
        assert 2 * math.pi * f_m * t == pytest.approx(1.895494267033981, rel=1e-5)

    def test_threshold_parameter(self):
        motion = MotionState(5.0, 0.0, 0.0)
        cluster = VmfCluster(0.0, 0.0, 0.0)
        t_low = decorrelation_time(cluster, motion, LAM, threshold=0.3)
        t_high = decorrelation_time(cluster, motion, LAM, threshold=0.7)
        assert t_high < t_low

    def test_first_crossing_is_returned(self):
        motion = MotionState(5.0, 0.0, 0.0)
        cluster = VmfCluster(0.0, 0.0, 0.0)
        t = decorrelation_time(cluster, motion, LAM, threshold=0.1)
        # still inside the main lobe, before the first zero of the sinc shape
        assert 2 * math.pi * motion.speed / LAM * t < math.pi

    @pytest.mark.xfail(strict=True, reason=(
        "the lag grid steps 3.7% (64 points per decade), 0.018 s at 0.5 s, past a dip of "
        "|ACF| below 1e-3 that is 1e-3 s wide; the scan first lands below it at the "
        "second zero, 0.999 s"))
    def test_first_crossing_inside_a_narrow_dip(self):
        # isotropic at 1 m/s and 1 m: |ACF| = |sin(2 pi t) / (2 pi t)| first falls
        # below 1e-3 at 0.4995005 s, within 5e-4 s of its first zero
        cluster, motion = VmfCluster(0.0, 0.0, 0.0), MotionState(1.0, 0.0, 0.0)
        t = decorrelation_time(cluster, motion, 1.0, threshold=1e-3)
        assert t == pytest.approx(0.4995005, rel=1e-5)

    def test_not_found(self):
        motion = MotionState(1.0, 0.0, 0.0)
        cluster = VmfCluster(0.0, 0.0, 0.0)
        with pytest.raises(DecorrelationNotFound):
            decorrelation_time(cluster, motion, LAM, horizon=1e-9)

    def test_not_found_in_one_of_several_cells(self):
        # the cells are refined together; the one whose crossing (0.090 s at
        # 1 m/s, against 0.045 and 0.030 s) lies past the horizon still raises
        cluster = VmfCluster(0.0, 0.0, 0.0)
        motions = [MotionState(speed, 0.0, 0.0) for speed in (1.0, 2.0, 3.0)]
        with pytest.raises(DecorrelationNotFound, match="horizon 0.05 s"):
            _search([cluster] * 3, motions, LAM, False, 0.5, 0.05)

    def test_preconditions(self):
        cluster = VmfCluster(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            decorrelation_time(cluster, MotionState(0.0, 0, 0), LAM)
        with pytest.raises(ValueError):
            decorrelation_time(cluster, MotionState(1.0, 0, 0), LAM, threshold=1.5)


def _lag_grid(clusters, motions, lam, monostatic, threshold, horizon=None):
    """Every cell's geometric lag grid, 64 points per decade from min(1e-6, horizon / 64)
    and clamped to its horizon, by default (10 + kappa / min(threshold, 0.5)) / f_m,
    padded with copies of it to one length."""
    if horizon is None:
        horizon = [(10.0 + c.kappa / min(threshold, 0.5)) / doppler_params(c, m, lam, monostatic).f_m
                   for c, m in zip(clusters, motions)]
    horizon = np.broadcast_to(np.asarray(horizon, dtype=float), (len(clusters),))
    ratio = 10.0 ** (1.0 / 64)
    start = np.minimum(1e-6, horizon / 64)
    count = int(np.ceil(np.max(np.log(horizon) - np.log(start)) / math.log(ratio))) + 2
    steps = np.full((len(clusters), count), ratio)
    steps[:, 0] = start
    return np.minimum(np.cumprod(steps, axis=1), horizon[:, None])


def _lockstep_reference(clusters, motions, lam, monostatic, threshold, horizon=None):
    """The decorrelation search as one kernel call over every cell's whole lag
    grid, then one bisection level per kernel call over the live cells: an
    independent reference for the windowed scan and the section search.
    Gives the times, the lag grid, each cell's first crossing column and the
    grid length."""
    factor = 2.0 if monostatic else 1.0
    kappa = np.array([c.kappa for c in clusters])
    mean = np.array([c.mean_direction for c in clusters])
    velocity = np.array([m.velocity for m in motions])

    def excess(t, cells):
        d = t[..., None] * (factor * velocity[cells])
        return np.abs(_closed_form(kappa[cells], mean[cells], d, lam)) - threshold

    grid = _lag_grid(clusters, motions, lam, monostatic, threshold, horizon)
    count = grid.shape[1]
    cells = np.arange(len(kappa))
    below = excess(grid, cells[:, None]) < 0.0
    found = below.any(axis=1)
    if not found.all():
        raise DecorrelationNotFound(f"|ACF| never fell below {threshold} within horizon "
                                    f"{float(horizon[np.argmin(found)])} s")
    first = np.argmax(below, axis=1)
    hi = grid[cells, first]
    lo = np.where(first > 0, grid[cells, first - 1], 0.0)
    live = cells[hi - lo > 1e-6 * hi]
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        below = excess(mid, live) < 0.0
        hi[live[below]] = mid[below]
        lo[live[~below]] = mid[~below]
        live = live[hi[live] - lo[live] > 1e-6 * hi[live]]
    return SimpleNamespace(times=0.5 * (lo + hi), grid=grid, first=first, count=count)


def _assert_agrees(times, reference):
    # each time lies in the reference's lag-grid bracket (grid[first - 1], grid[first]],
    # or (0, grid[0]], and within the search's 1e-6 relative width of its time
    for t, row, first in zip(times, reference.grid, reference.first):
        assert np.searchsorted(row, t) == first
    np.testing.assert_allclose(times, reference.times, rtol=1e-6, atol=0.0)


class TestDecorrelationSearch:
    """The windowed scan and the section search agree with the one-level
    bisection to the search's width, and give each cell the same bits alone
    and in a table."""

    def test_random_cells(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            lam, monostatic = 10 ** rng.uniform(-2, 0), bool(rng.integers(2))
            threshold = rng.uniform(0.1, 0.9)
            clusters = [VmfCluster(rng.uniform(-math.pi, math.pi),
                                   rng.uniform(-math.pi / 2, math.pi / 2),
                                   0.0 if rng.random() < 0.2 else 10 ** rng.uniform(-2, 6))
                        for _ in range(25)]
            motions = [MotionState(10 ** rng.uniform(-1, 2), rng.uniform(-math.pi, math.pi),
                                   rng.uniform(-math.pi / 2, math.pi / 2))
                       for _ in range(25)]
            table = _search(clusters, motions, lam, monostatic, threshold)
            _assert_agrees(table, _lockstep_reference(clusters, motions, lam, monostatic, threshold))
            for cluster, motion, t in zip(clusters, motions, table):
                assert decorrelation_time(cluster, motion, lam, monostatic, threshold) == t

    def test_crossing_before_the_first_column(self):
        # 1e9 m/s at a 1 m wavelength crosses at 3e-10 s, before the grid's 1e-6 s
        cluster, motion = VmfCluster(0.0, 0.0, 0.0), MotionState(1e9, 0.0, 0.0)
        reference = _lockstep_reference([cluster], [motion], 1.0, False, 0.5, 1.0)
        assert reference.first[0] == 0
        _assert_agrees([decorrelation_time(cluster, motion, 1.0, horizon=1.0)], reference)

    def test_crossing_in_the_last_partial_window(self, monkeypatch):
        # 1 m/s at 1 m crosses at 0.3017 s, in the first window of a grid to 0.31 s;
        # the window starts past half the floor 0.2757 s and is cut at the last column
        cluster, motion = VmfCluster(0.0, 0.0, 0.0), MotionState(1.0, 0.0, 0.0)
        reference = _lockstep_reference([cluster], [motion], 1.0, False, 0.5, 0.31)
        t0 = _crossing_floor(np.zeros(1), cluster.mean_direction[None],
                             direction_from_angles(0.0, 0.0)[None], 1.0, 0.5)[0]
        start = np.argmax(reference.grid[0] > 0.5 * t0)
        assert start <= reference.first[0] and reference.count - start < _FIRST_WINDOW
        sizes, closed_form = [], correlation._closed_form

        def counted(*args):
            value = closed_form(*args)
            sizes.append(value.size)
            return value

        monkeypatch.setattr(correlation, "_closed_form", counted)
        _assert_agrees([decorrelation_time(cluster, motion, 1.0, horizon=0.31)], reference)
        assert sizes[0] == reference.count - start

    def test_table_equals_each_cell_searched_alone(self, monkeypatch):
        # crossings before the first column need more rounds the deeper below it
        # they lie, so the cells of one table leave the refinement at different
        # rounds; a round of one cell evaluates its 15 inner lags
        cluster = VmfCluster(0.0, 0.0, 0.0)
        motions = [MotionState(speed, 0.0, 0.0)
                   for speed in (1.0, 4e5, 1e6, 3e6, 1e7, 2e7, 4e7, 1e8, 3e8, 1e9)]
        table = _search([cluster] * 10, motions, 1.0, False, 0.5, 1.0)
        sizes, closed_form = [], correlation._closed_form

        def counted(*args):
            value = closed_form(*args)
            sizes.append(value.size)
            return value

        monkeypatch.setattr(correlation, "_closed_form", counted)
        rounds = []
        for motion, t in zip(motions, table):
            sizes.clear()
            assert decorrelation_time(cluster, motion, 1.0, horizon=1.0) == t
            rounds.append(sizes.count(15))
        assert min(rounds) == 4 and max(rounds) == 8

    def test_not_found_names_the_first_unfound_cell(self):
        # crossings at 0.090, 0.045 and 0.030 s against per-cell horizons: the
        # first cell is found and the second is the first one that is not
        cluster = VmfCluster(0.0, 0.0, 0.0)
        motions = [MotionState(speed, 0.0, 0.0) for speed in (1.0, 2.0, 3.0)]
        horizon = np.array([1.0, 0.01, 0.02])
        message = re.escape("within horizon 0.01 s")
        with pytest.raises(DecorrelationNotFound, match=message):
            _lockstep_reference([cluster] * 3, motions, LAM, False, 0.5, horizon)
        with pytest.raises(DecorrelationNotFound, match=message):
            _search([cluster] * 3, motions, LAM, False, 0.5, horizon)


_FLOOR_THRESHOLDS = (1e-4, 1e-3, 0.05, 0.3, 0.5, 0.9, 0.999999)


def _floor_tables(seed, count, huge=False):
    """Seeded tables of 1-5 cells for the crossing floor: kappa 0 for every
    tenth cell, log-uniform over 1e-14-1e-3 for the next, else over 1e-3-1e6;
    an exactly radial, anti-radial or random heading; 0.1-100 m/s. With huge,
    kappa is log-uniform over 2.4e32-1e150 and the heading radial or
    anti-radial. Yields (clusters, motions, wavelength, monostatic, threshold)."""
    rng = np.random.default_rng(seed)
    cell = 0
    for _ in range(count):
        clusters, motions = [], []
        for _ in range(int(rng.integers(1, 6))):
            kappa = (10 ** rng.uniform(math.log10(2.4e32), 150) if huge
                     else 0.0 if cell % 10 == 0 else 10 ** rng.uniform(-14, -3) if cell % 10 == 1
                     else 10 ** rng.uniform(-3, 6))
            cell += 1
            mu_phi, mu_psi = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi / 2, math.pi / 2)
            heading = [(mu_phi, mu_psi), (mu_phi + math.pi, -mu_psi),
                       (rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi / 2, math.pi / 2))]
            clusters.append(VmfCluster(mu_phi, mu_psi, kappa))
            motions.append(MotionState(10 ** rng.uniform(-1, 2),
                                       *heading[rng.integers(2 if huge else 3)]))
        yield (clusters, motions, 10 ** rng.uniform(-2, 0), bool(rng.integers(2)),
               _FLOOR_THRESHOLDS[rng.integers(len(_FLOOR_THRESHOLDS))])


def _searched_points(search, from_first_column=False):
    """search()'s times as float.hex, or the error it raises as text, and the
    set of (kappa, mean, d) points its kernel calls evaluated; with
    from_first_column the floor is 0, so every cell joins the first window."""
    points, closed_form = set(), correlation._closed_form

    def recorded(kappa, mean, d, wavelength):
        points.update(zip(np.broadcast_to(kappa, d.shape[:-1]).ravel().tolist(),
                          map(bytes, np.broadcast_to(mean, d.shape).reshape(-1, 3)),
                          map(bytes, d.reshape(-1, 3))))
        return closed_form(kappa, mean, d, wavelength)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlation, "_closed_form", recorded)
        if from_first_column:
            patch.setattr(correlation, "_crossing_floor", lambda kappa, *_: np.zeros(len(kappa)))
        try:
            return [t.hex() for t in search().tolist()], points
        except (DecorrelationNotFound, DomainError) as error:
            return f"{type(error).__name__}: {error}", points


def _assert_scans_own_windows(clusters, motions, lam, monostatic, threshold, times, points):
    """Each cell's scanned lags among points (as _searched_points records them) are
    a contiguous run of its own grid columns, from its first column past half its
    crossing floor t0 to at most 31 columns (the first window) or 127 (a later
    window) past its crossing column, the one that times[cell] lies below."""
    factor = 2.0 if monostatic else 1.0
    for cluster, motion, row, t in zip(clusters, motions,
                                       _lag_grid(clusters, motions, lam, monostatic, threshold),
                                       times):
        heading = direction_from_angles(motion.phi_v, motion.psi_v)
        t0 = _crossing_floor(np.array([cluster.kappa]), cluster.mean_direction[None],
                             heading[None], factor * motion.speed / lam, threshold)[0]
        row = row[:np.argmax(row == row[-1]) + 1]  # up to its horizon, without the padding
        start = np.argmax((row > 0.5 * t0) | (row == row[-1]))
        first = np.searchsorted(row, t)
        key = (cluster.kappa, bytes(cluster.mean_direction))
        scanned = [j for j, d in enumerate(correlation._lag_displacement(row, motion.velocity,
                                                                          monostatic))
                   if key + (bytes(d),) in points]
        assert scanned == list(range(start, scanned[-1] + 1))
        window = _FIRST_WINDOW if first < start + _FIRST_WINDOW else _SCAN_WINDOW
        assert first <= scanned[-1] < first + window


class TestCrossingFloor:
    """The search starts each cell at half its certified floor t0, below its first
    crossing, scans its own windows of grid columns from there, and returns the
    same bits as a scan from the first column."""

    @pytest.mark.parametrize("kappa", [1e-14, 1e-8, 1e-3, 0.0099, 0.01, 1.0, 19.99, 20.0,
                                       700.0, 1e5])
    def test_direction_variances(self, kappa):
        # 1e-9 relative: the floor halves t0, so an error that small cannot move a lag past it
        with mp.workdps(40 + 2 * max(0, round(-math.log10(kappa)))):  # the differences cancel
            k = mp.mpf(kappa)
            reference = (1 / k**2 - 1 / mp.sinh(k) ** 2, (mp.coth(k) - 1 / k) / k)
            for value, exact in zip(_direction_variances(kappa), reference):
                assert abs(value - exact) <= 1e-9 * exact

    def test_direction_variances_at_zero(self):
        assert _direction_variances(0.0) == (1.0 / 3.0, 1.0 / 3.0)

    def test_search_equals_the_scan_from_the_first_column(self):
        # the huge tables' radial and anti-radial cells lie within rounding of the
        # mean, where the kernel's transverse residue decides their floor
        for clusters, motions, lam, monostatic, threshold in [*_floor_tables(41, 300),
                                                              *_floor_tables(47, 20, huge=True)]:
            search = partial(_search, clusters, motions, lam, monostatic, threshold)
            floored, points = _searched_points(search)
            assert floored == _searched_points(search, from_first_column=True)[0]
            if isinstance(floored, list):
                _assert_scans_own_windows(clusters, motions, lam, monostatic, threshold,
                                          list(map(float.fromhex, floored)), points)

    def test_acf_stays_above_the_threshold_before_the_floor(self):
        cells = [(c, m, lam, monostatic, threshold)
                 for clusters, motions, lam, monostatic, threshold in _floor_tables(43, 12)
                 for c, m in zip(clusters, motions)][:30]
        assert len(cells) == 30
        for cluster, motion, lam, monostatic, threshold in cells:
            factor = 2.0 if monostatic else 1.0
            heading = direction_from_angles(motion.phi_v, motion.psi_v)
            t0 = _crossing_floor(np.array([cluster.kappa]), cluster.mean_direction[None],
                                 heading[None], factor * motion.speed / lam, threshold)[0]
            for lag in (0.25 * t0, 0.5 * t0, t0):
                log_r = reference_log(cluster, lag * (factor * motion.velocity), lam)
                assert mp.exp(log_r.real) > threshold
