import math
import time

import numpy as np
import pytest

from vmfcorr import (
    MultipathEnsemble,
    QuadratureSpec,
    QuadratureToleranceError,
    VmfCluster,
    build_ensemble,
    scf,
    scf_montecarlo,
    scf_quadrature,
    sample_vmf,
    transfer_function,
)
from vmfcorr import oracles
from vmfcorr.oracles import _BLOCK_PATH_SAMPLES
from vmfcorr.vmf import TWO_PI, _tangent_basis, _vmf_directions

LAM = 0.4


class TestQuadrature:
    def test_unit_at_zero_displacement(self):
        for kappa in (0.0, 3.0, 40.0, 800.0):
            cluster = VmfCluster(0.6, -0.2, kappa)
            value = scf_quadrature(cluster, (0.0, 0.0, 0.0), LAM)
            assert abs(value - 1.0) < 1e-10

    def test_isotropic_zero(self):
        value = scf_quadrature(VmfCluster(0, 0, 0.0), (LAM / 2, 0.0, 0.0), LAM)
        assert abs(value) < 1e-10

    def test_matches_closed_form(self):
        rng = np.random.default_rng(71)
        for kappa in (0.0, 1.0, 10.0, 100.0):
            cluster = VmfCluster(0.5, 0.3, kappa)
            for _ in range(5):
                d = rng.normal(size=3)
                d *= rng.uniform(0.0, 3.0) * LAM / np.linalg.norm(d)
                gap = abs(scf(cluster, d, LAM) - scf_quadrature(cluster, d, LAM))
                assert gap < 1e-9

    def test_matches_closed_form_concentrated(self):
        # recentered window, including the large-kappa evaluation path
        rng = np.random.default_rng(72)
        for kappa in (300.0, 1000.0, 1e4):
            cluster = VmfCluster(-1.1, 0.55, kappa)
            for _ in range(3):
                d = rng.normal(size=3)
                d *= rng.uniform(0.2, 3.0) * LAM / np.linalg.norm(d)
                gap = abs(scf(cluster, d, LAM) - scf_quadrature(cluster, d, LAM))
                assert gap < 1e-9

    def test_concentration_limit(self):
        with pytest.raises(ValueError):
            scf_quadrature(VmfCluster(0, 0, 2e6), (0, 0, 0), LAM)
        assert abs(scf_quadrature(VmfCluster(0, 0, 1e6), (0, 0, 0), LAM) - 1.0) < 1e-10

    def test_work_bound(self):
        # k0 |d| = kappa transverse at kappa 1e6 needs about 19,000 azimuth
        # nodes on every node of the panel budget: refused before any work
        cluster = VmfCluster(0.3, 0.2, 1e6)
        _, transverse = _tangent_basis(cluster.mean_direction)
        d = cluster.kappa / (TWO_PI / LAM) * transverse
        started = time.perf_counter()
        with pytest.raises(QuadratureToleranceError, match="work bound") as info:
            scf_quadrature(cluster, d, LAM)
        assert time.perf_counter() - started < 1.0
        assert info.value.error == math.inf

    def test_tolerance_respected(self):
        cluster = VmfCluster(0.4, 0.2, 25.0)
        d = (0.8 * LAM, -0.3 * LAM, 0.1 * LAM)
        loose = scf_quadrature(cluster, d, LAM, QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6))
        tight = scf_quadrature(cluster, d, LAM, QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10))
        assert abs(loose - tight) < 1e-6

    def test_tolerance_failure_reports_estimate(self):
        cluster = VmfCluster(0.0, 0.0, 100.0)
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=8)
        with pytest.raises(QuadratureToleranceError) as info:
            scf_quadrature(cluster, (LAM, 0.0, 0.0), LAM, spec)
        assert info.value.error > 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)


class TestEnsemble:
    def test_unit_power(self):
        ensemble = build_ensemble(VmfCluster(0.2, 0.1, 5.0), 10, seed=1)
        assert float(np.sum(ensemble.amplitudes**2)) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        cluster = VmfCluster(0.2, 0.1, 5.0)
        a = build_ensemble(cluster, 32, seed=9)
        b = build_ensemble(cluster, 32, seed=9)
        np.testing.assert_array_equal(a.doas, b.doas)
        np.testing.assert_array_equal(a.phases, b.phases)
        c = build_ensemble(cluster, 32, seed=10)
        assert not np.array_equal(a.phases, c.phases)

    def test_minimum_path_count(self):
        with pytest.raises(ValueError):
            build_ensemble(VmfCluster(0, 0, 1.0), 9, seed=0)

    def test_concentrated_mean_direction(self):
        cluster = VmfCluster(0.8, -0.35, 50.0)
        ensemble = build_ensemble(cluster, 10_000, seed=2)
        mean = ensemble.doas.mean(axis=0)
        mean /= np.linalg.norm(mean)
        angle = math.acos(float(np.clip(mean @ cluster.mean_direction, -1, 1)))
        assert math.degrees(angle) < 1.0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            MultipathEnsemble(
                amplitudes=np.array([1.0, 1.0]),
                doas=np.array([[1.0, 0, 0], [0, 1.0, 0]]),
                phases=np.zeros(2),
                seed=0,
            )


class TestTransferFunction:
    def test_zero_offset_is_phase_sum(self):
        ensemble = build_ensemble(VmfCluster(0.1, 0.0, 2.0), 16, seed=3)
        expected = np.sum(ensemble.amplitudes * np.exp(1j * ensemble.phases))
        assert transfer_function(ensemble, (0.0, 0.0, 0.0), LAM) == pytest.approx(expected)

    def test_single_path_half_wavelength(self):
        single = MultipathEnsemble(
            amplitudes=np.array([1.0]),
            doas=np.array([[1.0, 0.0, 0.0]]),
            phases=np.array([0.0]),
            seed=0,
        )
        value = transfer_function(single, (LAM / 2, 0.0, 0.0), LAM)
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_rayleigh_envelope(self):
        # envelope of the multipath sum against the unit-power Rayleigh law,
        # one-sample KS statistic under the 1 percent critical value
        cluster = VmfCluster(0.3, 0.15, 8.0)
        n_realizations = 10_000
        magnitudes = np.empty(n_realizations)
        for index in range(n_realizations):
            seq = np.random.SeedSequence(entropy=77, spawn_key=(index,))
            child = seq.generate_state(1)[0]
            ensemble = build_ensemble(cluster, 100, seed=int(child))
            magnitudes[index] = abs(transfer_function(ensemble, (0.0, 0.0, 0.0), LAM))
        magnitudes.sort()
        cdf = 1.0 - np.exp(-(magnitudes**2))
        ranks = np.arange(1, n_realizations + 1)
        statistic = max(
            float(np.max(ranks / n_realizations - cdf)),
            float(np.max(cdf - (ranks - 1) / n_realizations)),
        )
        assert statistic < 1.628 / math.sqrt(n_realizations)


class TestMonteCarlo:
    def test_exact_at_zero_displacement(self):
        estimate, stderr = scf_montecarlo(
            VmfCluster(0.4, 0.2, 12.0), (0.0, 0.0, 0.0), LAM, n_realizations=200, seed=4
        )
        assert estimate == 1.0 + 0.0j
        assert stderr == 0.0

    def test_matches_closed_form(self):
        # concentrations from uniform to radar scale, a mean direction with
        # |mu_z| > 0.9 and a displacement with parts along both tangents
        mean = VmfCluster(0.5, 1.3, 0.0).mean_direction
        e1, e2 = _tangent_basis(mean)
        cases = [
            (VmfCluster(0.0, 0.0, 10.0), (LAM / 2, 0.0, 0.0)),
            (VmfCluster(0.0, 0.0, 0.0), (LAM / 2, 0.0, 0.0)),
            (VmfCluster(-0.8, 0.3, 1e3), (3 * LAM, -2 * LAM, LAM)),
            (VmfCluster(1.9, -0.5, 1e5), (30 * LAM, 10 * LAM, -20 * LAM)),
            (VmfCluster(0.5, 1.3, 4.0), (0.2 * LAM, -0.1 * LAM, 0.3 * LAM)),
            (VmfCluster(0.5, 1.3, 4.0), tuple(LAM * (0.4 * e1 - 0.3 * e2 + 0.2 * mean))),
        ]
        for cluster, d in cases:
            estimate, stderr = scf_montecarlo(cluster, d, LAM, n_realizations=4000, seed=5)
            assert abs(estimate - scf(cluster, d, LAM)) <= 4 * stderr, (cluster, d)

    def test_near_uniform_at_tiny_kappa(self):
        # below kappa ~ 5e-17 the 0.2.x transform put every path on the mean
        # direction and returned exp(j k0 mu . d) with standard error 0
        cluster = VmfCluster(0.3, 0.2, 1e-300)
        d = tuple(LAM / 2 * cluster.mean_direction)
        estimate, stderr = scf_montecarlo(cluster, d, LAM, n_realizations=2000, seed=6)
        assert stderr > 0.0
        assert abs(estimate - scf(cluster, d, LAM)) <= 4 * stderr

    def test_isotropic_null(self):
        cluster = VmfCluster(0.7, -0.3, 0.0)
        estimate, stderr = scf_montecarlo(
            cluster, (LAM / 2, 0.0, 0.0), LAM, n_realizations=2000, seed=6
        )
        assert abs(estimate) <= 4 * stderr

    def test_stderr_scaling(self):
        cluster = VmfCluster(0.2, 0.1, 6.0)
        d = (0.7 * LAM, 0.2 * LAM, 0.0)
        _, se_small = scf_montecarlo(cluster, d, LAM, n_realizations=200, seed=7)
        _, se_large = scf_montecarlo(cluster, d, LAM, n_realizations=20_000, seed=7)
        ratio = se_small / se_large
        assert 10.0 / 1.5 < ratio < 10.0 * 1.5

    def test_preconditions(self):
        cluster = VmfCluster(0, 0, 1.0)
        with pytest.raises(ValueError):
            scf_montecarlo(cluster, (0, 0, 0), LAM, n_realizations=50)
        with pytest.raises(ValueError):
            scf_montecarlo(cluster, (0, 0, 0), LAM, n_paths=5, n_realizations=200)


def _montecarlo_rows(cluster, d, wavelength, n_paths, n_realizations, seed):
    # one realization at a time, each reading its row of the two spawned
    # streams and spelling the polar transform and the mean-frame phase out:
    # the reference the blocked evaluation must reproduce bit for bit
    k0 = TWO_PI / wavelength
    kappa = cluster.kappa
    d = np.asarray(d, dtype=float)
    mean = cluster.mean_direction
    projection = float(mean @ d)
    along = k0 * projection
    across = k0 * math.hypot(*(d - projection * mean))
    u_rng, theta_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    real = np.empty(n_realizations)
    imag = np.empty(n_realizations)
    for index in range(n_realizations):
        u = u_rng.random(n_paths)
        theta = theta_rng.uniform(0.0, TWO_PI, n_paths)
        if kappa == 0.0:
            w = 2.0 * u - 1.0
        else:
            w = np.clip(1.0 + np.log1p(u * math.expm1(-2.0 * kappa)) / kappa, -1.0, 1.0)
        phase = along * w + across * np.sqrt(1.0 - w * w) * np.cos(theta)
        real[index] = np.mean(np.cos(phase))
        imag[index] = np.mean(np.sin(phase))
    estimate = complex(np.mean(real), np.mean(imag))
    spread = float(np.sum((real - estimate.real) ** 2) + np.sum((imag - estimate.imag) ** 2))
    return estimate, math.sqrt(spread / (n_realizations * (n_realizations - 1)))


class TestMonteCarloBitIdentity:
    @pytest.mark.parametrize(
        "cluster, d, n_paths, n_realizations, seed, expected",
        [
            (VmfCluster(0.3, -0.4, 10.0), (0.03, -0.02, 0.01), 64, 1000, 123456,
             ((0.454210337377511 + 0.68030193784268j), 0.00227735961508785)),
            (VmfCluster(2.0, 1.2, 1e5), (0.01, 0.005, -0.012), 10, 100, 2**32 - 1,
             ((0.7687063294476815 - 0.6395975811078858j), 7.687197409196084e-05)),
            (VmfCluster(-1.0, 0.0, 0.0), (0.05, 0.0, 0.02), 13, 300, 7,
             ((-0.08049932470353371 - 0.0023756742001057114j), 0.015142568804305324)),
        ],
    )
    def test_pinned_values(self, cluster, d, n_paths, n_realizations, seed, expected):
        # values of the mean-frame contract introduced in 0.3.0
        assert scf_montecarlo(cluster, d, 0.1, n_paths, n_realizations, seed) == expected

    @pytest.mark.parametrize("kappa", [0.0, 10.0, 700.001, 1e5])
    @pytest.mark.parametrize("mu_psi", [-0.4, 1.3])
    def test_matches_loop_reference(self, kappa, mu_psi):
        # mu_psi = 1.3 puts |mu_z| above 0.9, where the tangent basis takes
        # its other helper axis; 1037 realizations end in a partial block
        n_paths, n_realizations = 64, 1037
        block = _BLOCK_PATH_SAMPLES // n_paths
        assert n_realizations > block and n_realizations % block != 0
        cluster = VmfCluster(0.7, mu_psi, kappa)
        d = (0.03, -0.02, 0.01)
        blocked = scf_montecarlo(cluster, d, 0.1, n_paths, n_realizations, seed=31)
        assert blocked == _montecarlo_rows(cluster, d, 0.1, n_paths, n_realizations, 31)

    @pytest.mark.parametrize("n_paths, n_realizations", [(13, 300), (64, 1024), (10, 1700)])
    def test_block_boundaries(self, n_paths, n_realizations):
        # one partial block, whole blocks only, one full block plus a remainder
        cluster = VmfCluster(-2.2, 0.1, 3.0)
        d = (0.05, 0.0, -0.02)
        blocked = scf_montecarlo(cluster, d, 0.1, n_paths, n_realizations, seed=8)
        assert blocked == _montecarlo_rows(cluster, d, 0.1, n_paths, n_realizations, 8)

    @pytest.mark.parametrize("rows", [1, 10, 300])
    @pytest.mark.parametrize("kappa", [0.0, 10.0, 700.001, 1e5])
    @pytest.mark.parametrize("mu_psi", [-0.4, 1.3])
    def test_block_invariance(self, monkeypatch, rows, kappa, mu_psi):
        # blocks of one row, of ten rows and of 300 rows (three whole blocks
        # and a partial one of 137) give the default blocking's values
        n_paths, n_realizations = 64, 1037
        cluster = VmfCluster(0.7, mu_psi, kappa)
        d = (0.03, -0.02, 0.01)
        default = scf_montecarlo(cluster, d, 0.1, n_paths, n_realizations, seed=31)
        monkeypatch.setattr(oracles, "_BLOCK_PATH_SAMPLES", rows * n_paths)
        assert scf_montecarlo(cluster, d, 0.1, n_paths, n_realizations, seed=31) == default

    @pytest.mark.parametrize("kappa", [0.0, 10.0, 1e5])
    def test_rotations_about_the_mean_agree(self, kappa):
        # mean (1, 0, 0): quarter turns about it and a mirror image give the
        # same along and across bit for bit, so the same estimate
        cluster = VmfCluster(0.0, 0.0, kappa)
        assert cluster.mean_direction.tolist() == [1.0, 0.0, 0.0]
        x, y, z = 0.02, 0.031, -0.017
        reference = scf_montecarlo(cluster, (x, y, z), 0.1, 16, 300, seed=12)
        for d in ((x, -z, y), (x, -y, -z), (x, z, -y), (x, y, -z)):
            assert scf_montecarlo(cluster, d, 0.1, 16, 300, seed=12) == reference

    @pytest.mark.parametrize("kappa", [0.0, 10.0, 1e5])
    def test_stacked_rows_match_sample_vmf(self, kappa):
        cluster = VmfCluster(0.4, 1.4, kappa)
        n = 17
        seeds = [np.random.SeedSequence(entropy=5, spawn_key=(i,)) for i in range(6)]
        u = np.empty((len(seeds), n))
        theta = np.empty((len(seeds), n))
        for row, seq in enumerate(seeds):
            rng = np.random.default_rng(seq)
            u[row] = rng.random(n)
            theta[row] = rng.uniform(0.0, TWO_PI, n)
        stacked = _vmf_directions(cluster, u, theta)
        assert stacked.shape == (len(seeds), n, 3)
        for row, seq in enumerate(seeds):
            np.testing.assert_array_equal(stacked[row], sample_vmf(cluster, n, seq))
