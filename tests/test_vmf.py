import hashlib
import math

import mpmath as mp
import numpy as np
import pytest

from vmfcorr import (
    VmfCluster,
    angles_from_direction,
    csinc_sqrt,
    direction_from_angles,
    kappa_from_angular_width,
    mean_resultant_length,
    sample_vmf,
    scf_quadrature,
    vmf_pdf,
)
from vmfcorr.vmf import _tangent_basis


class TestDirection:
    def test_axis_cases(self):
        np.testing.assert_allclose(direction_from_angles(0.0, 0.0), [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(direction_from_angles(math.pi / 2, 0.0), [0, 1, 0], atol=1e-15)

    def test_mixed_angles(self):
        u = direction_from_angles(math.pi / 4, math.pi / 4)
        np.testing.assert_allclose(u, [0.5, 0.5, math.sqrt(2) / 2], atol=1e-15)

    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            phi = rng.uniform(-4 * math.pi, 4 * math.pi)
            psi = rng.uniform(-math.pi / 2, math.pi / 2)
            u = direction_from_angles(phi, psi)
            assert abs(np.linalg.norm(u) - 1.0) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            phi = rng.uniform(-math.pi, math.pi)
            psi = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)
            got_phi, got_psi = angles_from_direction(direction_from_angles(phi, psi))
            assert abs(got_phi - phi) < 1e-12
            assert abs(got_psi - psi) < 1e-12

    def test_elevation_domain(self):
        with pytest.raises(ValueError):
            direction_from_angles(0.0, 2.0)
        with pytest.raises(ValueError):
            angles_from_direction([1.0, 1.0, 1.0])


class TestVmfCluster:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            VmfCluster(0.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            VmfCluster(0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            VmfCluster(0.0, 0.0, 1.0, power=0.0)
        with pytest.raises(ValueError):
            VmfCluster(0.0, 0.0, 1.0, power=1.5)

    def test_mean_direction(self):
        cluster = VmfCluster(0.3, -0.2, 5.0)
        np.testing.assert_allclose(
            cluster.mean_direction, direction_from_angles(0.3, -0.2), atol=0
        )


class TestVmfPdf:
    def test_uniform_limit(self):
        cluster = VmfCluster(0.7, 0.1, 0.0)
        for phi, psi in [(0.0, 0.0), (2.0, 1.0), (-1.0, -1.2)]:
            assert vmf_pdf(cluster, phi, psi) == pytest.approx(math.cos(psi) / (4 * math.pi))

    def test_peak_value(self):
        cluster = VmfCluster(1.1, 0.3, 2.0)
        expected = 2.0 / (4 * math.pi * math.sinh(2.0)) * math.exp(2.0) * math.cos(0.3)
        assert vmf_pdf(cluster, 1.1, 0.3) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.30976662272235933)

    @pytest.mark.parametrize("kappa", [0.0, 1.0, 10.0, 100.0, 1000.0])
    def test_normalization(self, kappa):
        # the quadrature oracle at zero displacement integrates the bare density
        cluster = VmfCluster(0.4, -0.25, kappa)
        total = scf_quadrature(cluster, (0.0, 0.0, 0.0), 1.0)
        assert abs(total - 1.0) < 1e-9

    def test_no_overflow_at_high_concentration(self):
        cluster = VmfCluster(0.0, 0.0, 1e5)
        peak = vmf_pdf(cluster, 0.0, 0.0)
        assert math.isfinite(peak) and peak > 0
        assert vmf_pdf(cluster, math.pi, 0.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            vmf_pdf(VmfCluster(0, 0, 1.0), 0.0, 2.0)

    def test_vectorized(self):
        cluster = VmfCluster(0.2, 0.1, 3.0)
        phi = np.linspace(-math.pi, math.pi, 7)
        psi = np.linspace(-1.0, 1.0, 5)
        grid = vmf_pdf(cluster, phi[:, None], psi[None, :])
        assert grid.shape == (7, 5)
        assert grid[3, 2] == pytest.approx(vmf_pdf(cluster, phi[3], psi[2]))


class TestSampler:
    def test_deterministic(self):
        cluster = VmfCluster(0.5, 0.2, 8.0)
        a = sample_vmf(cluster, 1000, seed=7)
        b = sample_vmf(cluster, 1000, seed=7)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kappa, digest", [
        (0.0, "3315013795441b00af3a895370999b5a4e6b44ffca47863919711871c9f85217"),
        (10.0, "2bbcff61372233a88ea6c22dbbf16b9b2e4c75b0464041504fbe27a6bea34c0f"),
        (1e5, "3d2d2370e6fdffc11134564dc9f709590c9d298db8df6ad99680f465f70211b7"),
    ])
    def test_pinned_values(self, kappa, digest):
        # SHA-256 of the little-endian doubles of 17 seeded draws near the
        # pole (mu_psi 1.4), where the tangent basis takes its other helper
        # axis: a change to the sampler's arithmetic or draw order changes it
        samples = sample_vmf(VmfCluster(0.4, 1.4, kappa), 17, seed=5)
        assert samples.shape == (17, 3)
        assert hashlib.sha256(samples.astype("<f8").tobytes()).hexdigest() == digest

    def test_unit_norm(self):
        samples = sample_vmf(VmfCluster(1.0, -0.4, 3.0), 5000, seed=3)
        assert np.max(np.abs(np.linalg.norm(samples, axis=1) - 1.0)) < 1e-12

    def test_uniform_case(self):
        samples = sample_vmf(VmfCluster(0.0, 0.0, 0.0), 100_000, seed=11)
        assert np.linalg.norm(samples.mean(axis=0)) < 0.01

    @pytest.mark.parametrize("kappa", [0.5, 5.0, 50.0])
    def test_resultant_length(self, kappa):
        cluster = VmfCluster(0.9, 0.3, kappa)
        samples = sample_vmf(cluster, 200_000, seed=int(kappa * 10))
        along = samples @ cluster.mean_direction
        observed = float(np.linalg.norm(samples.mean(axis=0)))
        stderr = float(np.std(along)) / math.sqrt(samples.shape[0])
        assert abs(observed - mean_resultant_length(kappa)) < 4 * stderr

    @pytest.mark.parametrize("kappa", [5e-324, 1e-300, 1e-17, 1e-12])
    def test_uniform_at_tiny_kappa(self, kappa):
        # the cosine along the mean is uniform on [-1, 1] to within kappa;
        # one-sample KS statistic under the 1 percent critical value
        cluster = VmfCluster(0.9, 0.3, kappa)
        n = 20_000
        along = np.sort(sample_vmf(cluster, n, seed=13) @ cluster.mean_direction)
        cdf = 0.5 * (along + 1.0)
        ranks = np.arange(1, n + 1)
        statistic = max(float(np.max(ranks / n - cdf)), float(np.max(cdf - (ranks - 1) / n)))
        assert statistic < 1.628 / math.sqrt(n)

    def test_concentrated_mean_direction(self):
        cluster = VmfCluster(-0.7, 0.45, 10.0)
        samples = sample_vmf(cluster, 1_000_000, seed=4)
        mean = samples.mean(axis=0)
        mean /= np.linalg.norm(mean)
        angle = math.acos(float(np.clip(mean @ cluster.mean_direction, -1, 1)))
        assert math.degrees(angle) < 0.5

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            sample_vmf(VmfCluster(0, 0, 1.0), 0, seed=0)


def test_tangent_basis_is_a_right_handed_frame():
    # unit, e1 and e2 are orthonormal with e1 x e2 = unit, and e1 is normal to
    # the helper axis, z or x within about 26 degrees of a pole, on both sides
    # of the |z| = 0.9 switch and at the axes; the worst error is 1.5 eps
    units = np.random.default_rng(2).normal(size=(2000, 3))
    units /= np.linalg.norm(units, axis=1)[:, None]
    axes = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -0.0, 1.0], [-0.0, 0.0, -1.0],
            [0.0, 1.0, -0.0], [0.6, -0.8, 0.0], [math.sqrt(0.19), 0.0, 0.9]]
    ulps = 4.0 * np.finfo(float).eps
    for unit in [*units, *np.array(axes)]:
        e1, e2 = _tangent_basis(unit)
        helper = [0.0, 0.0, 1.0] if abs(unit[2]) < 0.9 else [1.0, 0.0, 0.0]
        assert abs(np.linalg.norm(e1) - 1.0) <= ulps and abs(np.linalg.norm(e2) - 1.0) <= ulps
        for a, b in [(e1, unit), (e2, unit), (e1, e2), (e1, helper)]:
            assert abs(np.dot(a, b)) <= ulps
        assert np.max(np.abs(np.cross(e1, e2) - unit)) <= ulps


def test_mean_resultant_length_against_mpmath():
    # coth kappa - 1/kappa at 40 digits, on a log grid across the series cutoff
    with mp.workdps(40):
        for kappa in np.logspace(-8.0, 3.0, 2001).tolist():
            k = mp.mpf(kappa)
            reference = mp.coth(k) - 1 / k
            assert abs(mean_resultant_length(kappa) - reference) <= 1e-13 * reference, kappa


class TestKappaFromWidth:
    def test_hemisphere(self):
        assert kappa_from_angular_width(math.pi) == pytest.approx(2.0, rel=1e-14)

    def test_narrow_targets(self):
        assert kappa_from_angular_width(math.radians(2.0)) == pytest.approx(13131.55873845995)
        assert kappa_from_angular_width(math.radians(0.5)) == pytest.approx(210099.93973448372)

    @pytest.mark.parametrize("width_deg", [179.0, 4.0, 0.25, 0.01, 1e-4, 1e-6])
    def test_against_mpmath(self, width_deg):
        # 2 / (1 - cos(delta / 2)) at 40 digits from the same double width
        delta = math.radians(width_deg)
        with mp.workdps(40):
            reference = 2 / (1 - mp.cos(mp.mpf(delta) / 2))
            error = abs(kappa_from_angular_width(delta) - reference) / reference
        assert error <= 4.0 * np.finfo(float).eps

    def test_strictly_decreasing(self):
        widths = np.linspace(0.01, 2 * math.pi - 0.01, 50)
        values = [kappa_from_angular_width(w) for w in widths]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 0 for v in values)

    def test_domain(self):
        for bad in (0.0, -1.0, 2 * math.pi, 7.0):
            with pytest.raises(ValueError):
                kappa_from_angular_width(bad)

    def test_too_narrow_for_a_finite_kappa(self):
        # sin^2(width / 4) is subnormal near 1e-152 deg, where its reciprocal
        # overflows, and underflows to 0 below about 1e-160 deg
        for width_deg in (1e-152, 1e-155, 1e-160, 1e-170):
            width = math.radians(width_deg)
            with pytest.raises(ValueError, match=f"angular width {width} is too narrow"):
                kappa_from_angular_width(width)
        assert kappa_from_angular_width(math.radians(1e-150)) == pytest.approx(5.25249016e304)
        assert kappa_from_angular_width(math.radians(1e-70)) == pytest.approx(5.25249016e144)


class TestCsincSqrt:
    def test_at_zero(self):
        assert csinc_sqrt(0.0) == 1.0 + 0.0j

    def test_zero_of_sinc(self):
        assert abs(csinc_sqrt(math.pi**2)) < 1e-15

    def test_negative_argument(self):
        assert csinc_sqrt(-4.0) == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-14)
        assert csinc_sqrt(-4.0).imag == pytest.approx(0.0, abs=1e-16)

    def test_branch_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            w = complex(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
            z = np.sqrt(complex(w))
            a = np.sin(z) / z
            b = np.sin(-z) / (-z)
            assert abs(a - b) <= 1e-13 * abs(a)

    def test_against_mpmath_over_the_disc(self):
        # sin(z)/z on |w| <= 0.25 against 40 digits: half the points uniform
        # over the disc, half with |w| log-uniform down to 1e-300, plus w = 0
        # and the disc's four axis points
        rng = np.random.default_rng(9)
        angles = rng.uniform(0.0, 2.0 * math.pi, 1000)
        radii = np.concatenate([0.25 * np.sqrt(rng.random(500)),
                                10.0 ** rng.uniform(-300.0, math.log10(0.25), 500)])
        points = [*(radii * np.exp(1j * angles)), 0j, 0.25, -0.25, 0.25j, -0.25j]
        values = csinc_sqrt(np.array(points))
        with mp.workdps(40):
            for w, value in zip(points, values):
                z = mp.sqrt(mp.mpc(w))
                reference = mp.sin(z) / z if z != 0 else mp.mpc(1)
                assert abs(mp.mpc(value) - reference) <= 1e-15, w

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            csinc_sqrt(complex(math.nan, 0.0))
        with pytest.raises(ValueError):
            csinc_sqrt(complex(math.inf, 1.0))
