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
        cluster = VmfCluster(0.0, 0.0, 10.0)
        d = (LAM / 2, 0.0, 0.0)
        estimate, stderr = scf_montecarlo(cluster, d, LAM, n_realizations=4000, seed=5)
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
    # streams: the reference the blocked evaluation must reproduce bit for bit
    k0 = TWO_PI / wavelength
    d = np.asarray(d, dtype=float)
    u_rng, theta_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    terms = np.empty(n_realizations, dtype=complex)
    for index in range(n_realizations):
        u = u_rng.random(n_paths)
        theta = theta_rng.uniform(0.0, TWO_PI, n_paths)
        doas = _vmf_directions(cluster, u, theta)
        terms[index] = np.mean(np.exp(1j * k0 * (doas @ d)))
    estimate = complex(np.mean(terms))
    spread = float(np.sum(np.abs(terms - estimate) ** 2))
    return estimate, math.sqrt(spread / (n_realizations * (n_realizations - 1)))


class TestMonteCarloBitIdentity:
    @pytest.mark.parametrize(
        "cluster, d, n_paths, n_realizations, seed, expected",
        [
            (VmfCluster(0.3, -0.4, 10.0), (0.03, -0.02, 0.01), 64, 1000, 123456,
             ((0.4498536341501564 + 0.6823588281887939j), 0.0022795048319753748)),
            (VmfCluster(2.0, 1.2, 1e5), (0.01, 0.005, -0.012), 10, 100, 2**32 - 1,
             ((0.768747351376629 - 0.639548119937784j), 8.244053002755852e-05)),
            (VmfCluster(-1.0, 0.0, 0.0), (0.05, 0.0, 0.02), 13, 300, 7,
             ((-0.08297493884088336 + 0.006416525295029755j), 0.01558912747607587)),
        ],
    )
    def test_pinned_values(self, cluster, d, n_paths, n_realizations, seed, expected):
        # values of the two-stream contract introduced in 0.2.0
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
