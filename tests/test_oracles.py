import hashlib
import math
import sys
import threading
import time
import warnings

import mpmath as mp
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
    transfer_function,
)
from vmfcorr import oracles
from vmfcorr.oracles import _BLOCK_PATH_SAMPLES, _bessel_j0, _cos_sin
from vmfcorr.vmf import TWO_PI, _polar_transform, _tangent_basis

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
        for d in ((0, 0, 0), np.zeros((3, 3))):
            with pytest.raises(ValueError):
                scf_quadrature(VmfCluster(0, 0, 2e6), d, LAM)
        assert abs(scf_quadrature(VmfCluster(0, 0, 1e6), (0, 0, 0), LAM) - 1.0) < 1e-10

    def test_work_bound(self):
        # the panel budget alone bounds the work: k0 |d| = kappa transverse at
        # kappa 1e6 is certified, and k0 |d| = 1e4 at kappa 0, which the
        # budget cannot resolve, is refused, each well inside a second
        cluster = VmfCluster(0.3, 0.2, 1e6)
        _, transverse = _tangent_basis(cluster.mean_direction)
        d = cluster.kappa / (TWO_PI / LAM) * transverse
        started = time.perf_counter()
        assert abs(scf_quadrature(cluster, d, LAM) - scf(cluster, d, LAM)) < 1e-12
        assert time.perf_counter() - started < 1.0
        uniform = VmfCluster(0.3, 0.2, 0.0)
        started = time.perf_counter()
        with pytest.raises(QuadratureToleranceError, match="tolerance not met"):
            scf_quadrature(uniform, 1e4 / (TWO_PI / LAM) * transverse, LAM)
        assert time.perf_counter() - started < 1.0

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


class TestQuadratureBatch:
    CLUSTER = VmfCluster(0.3, 0.2, 10.0)
    SPEC = QuadratureSpec(abs_tol=1e-3, rel_tol=1e-3, max_subdivisions=64)
    # Rows at 3, 10 and 30 wavelengths on one slant, the first negated, zero,
    # far off the mean, and along the mean; the 10 and 30 wavelength and far
    # rows are refined past the first pass.
    ROWS = np.array([
        [0.4919270032410835, 0.15217085426429774, 1.0839058329000362],
        [0.0, 0.0, 0.0],
        [1.639756677470278, 0.5072361808809924, 3.61301944300012],
        [-0.4919270032410835, -0.15217085426429774, -1.0839058329000362],
        [-639.6556227621928, 2067.832734021398, 0.0],
        [0.7490346908673594, 0.23170358210041245, 0.158935464636049],
        [4.919270032410834, 1.5217085426429773, 10.83905832900036],
    ])
    # float.hex of rows 1, 4 and 6 with the azimuth average taken as J0
    PINNED = {
        1: ("0x1.fffffffffffe5p-1", "0x0.0p+0"),
        4: ("-0x1.42ba7c0b7ceefp-11", "0x0.0p+0"),
        6: ("-0x1.19871e1a9407cp-13", "-0x1.fb8a38b128fcap-11"),
    }

    def test_rows_equal_one_row_calls(self):
        batch = scf_quadrature(self.CLUSTER, self.ROWS, LAM, self.SPEC)
        assert batch.shape == (len(self.ROWS),)
        singles = [scf_quadrature(self.CLUSTER, row, LAM, self.SPEC) for row in self.ROWS]
        assert all(type(value) is complex for value in singles)
        assert [(v.real.hex(), v.imag.hex()) for v in batch.tolist()] == [
            (v.real.hex(), v.imag.hex()) for v in singles]
        for i, pinned in self.PINNED.items():
            assert (batch[i].real.hex(), batch[i].imag.hex()) == pinned

    def test_first_pass_leaves_rows_to_refine(self, monkeypatch):
        # the batch needs one first pass per block of rows, and refinement
        # passes for rows 2, 4 and 6 alone
        seen = []
        rule = oracles._panel_rule

        def counted(f, lo, hi):
            k15, err = rule(f, lo, hi)
            seen.append(k15.shape)
            return k15, err

        monkeypatch.setattr(oracles, "_panel_rule", counted)
        scf_quadrature(self.CLUSTER, self.ROWS, LAM, self.SPEC)
        first = [shape for shape in seen if len(shape) == 2]
        assert sum(rows for rows, _ in first) == len(self.ROWS)
        assert len(seen) > len(first)

    def test_first_failing_row_raises(self):
        cluster = VmfCluster(0.0, 0.0, 100.0)
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=8)
        _, transverse = _tangent_basis(cluster.mean_direction)
        failing = (LAM, 0.0, 0.0)
        with pytest.raises(QuadratureToleranceError) as scalar:
            scf_quadrature(cluster, failing, LAM, spec)
        # d = 0 and k0 |d| = 1e6 transverse miss the tolerance too, with other
        # error estimates
        far = 1e6 / (TWO_PI / LAM) * transverse
        for other in ((0.0, 0.0, 0.0), far):
            with pytest.raises(QuadratureToleranceError) as info:
                scf_quadrature(cluster, other, LAM, spec)
            assert info.value.error != scalar.value.error
        with pytest.raises(QuadratureToleranceError) as batch:
            scf_quadrature(cluster, [failing, (0.0, 0.0, 0.0), far, failing], LAM, spec)
        assert str(batch.value) == str(scalar.value)
        assert batch.value.estimate == scalar.value.estimate
        assert batch.value.error == scalar.value.error

    def test_overflowing_row_refused_before_any_work(self, monkeypatch):
        # k0 |d| past the largest double, or k0 itself at a subnormal
        # wavelength: no phase to integrate, refused before any panel is
        # evaluated, wherever the row stands in the batch
        calls = []
        rule = oracles._panel_rule

        def counted(f, lo, hi):
            calls.append(None)
            return rule(f, lo, hi)

        monkeypatch.setattr(oracles, "_panel_rule", counted)
        near = [(0.0, 0.0, 0.0), (LAM, 0.0, 0.0)]
        for d, wavelength in (((1e300, 0.0, 0.0), 1e-10),
                              ([*near, (0.0, 1e300, 0.0), *near * 200], 1e-10),
                              ((0.0, 0.0, 0.0), 5e-324)):
            with pytest.raises(QuadratureToleranceError, match="overflows") as info:
                scf_quadrature(self.CLUSTER, d, wavelength)
            assert math.isnan(info.value.estimate.real) and math.isnan(info.value.estimate.imag)
            assert info.value.error == math.inf
        assert calls == []
        # finite products whose squares would overflow: hypot keeps across
        # finite, and the correlation there is far below the tolerance
        assert abs(scf_quadrature(self.CLUSTER, (1e300, 1e300, 0.0), 1.0)) < 1e-10

    @pytest.mark.parametrize("d", [np.zeros(2), np.zeros((4, 2)), np.zeros((2, 2, 3)),
                                   [(0.0, 0.0, 0.0), (math.nan, 0.0, 0.0)],
                                   (math.inf, 0.0, 0.0)])
    def test_rejects_malformed_displacements(self, d):
        with pytest.raises(ValueError):
            scf_quadrature(self.CLUSTER, d, LAM)

    def test_empty_batch(self):
        assert scf_quadrature(self.CLUSTER, np.zeros((0, 3)), LAM).shape == (0,)

    # float.hex of rows whose projections off the mean are all zero (d = 0
    # and d along the mean (1, 0, 0)) or below the smallest subnormal, as the
    # oracle gave them while it still summed the cosines of 0 in a trapezoid
    # rule: J0(0) is exactly 1, and J0 of a subnormal rounds to 1
    ZERO_ROWS = np.array([[0.0, 0.0, 0.0], [0.7, 0.0, 0.0], [-3.1, 0.0, 0.0],
                          [0.3, 5e-324, 0.0], [0.3, 0.0, -5e-324]])
    ZERO_PINNED = {
        10.0: [("0x1.fffffffffffe5p-1", "0x0.0p+0"),
               ("-0x1.fdb3e4c002e20p-2", "-0x1.cf8d777265f3fp-2"),
               ("-0x1.938f71e278b00p-3", "0x1.4b80a7f8ffea2p-5"),
               ("-0x1.8adceac0f4091p-2", "-0x1.a2f66d975fcc5p-1"),
               ("-0x1.8adceac0f4091p-2", "-0x1.a2f66d975fcc5p-1")],
        1e6: [("0x1.fffffffffffe1p-1", "0x0.0p+0"),
              ("-0x1.70f343909452ep-17", "-0x1.fffffffef6200p-1"),
              ("-0x1.987b0abe664d7p-15", "0x1.ffffffeba1ba9p-1"),
              ("-0x1.3c3e39e9fb1b7p-18", "-0x1.ffffffffcf290p-1"),
              ("-0x1.3c3e39e9fb1b7p-18", "-0x1.ffffffffcf290p-1")],
    }

    @pytest.mark.parametrize("kappa", sorted(ZERO_PINNED))
    def test_zero_projection_rows(self, kappa):
        cluster = VmfCluster(0.0, 0.0, kappa)
        assert cluster.mean_direction.tolist() == [1.0, 0.0, 0.0]
        batch = scf_quadrature(cluster, self.ZERO_ROWS, LAM)
        singles = [scf_quadrature(cluster, row, LAM) for row in self.ZERO_ROWS]
        for values in (batch.tolist(), singles):
            assert [(v.real.hex(), v.imag.hex()) for v in values] == self.ZERO_PINNED[kappa]

    @staticmethod
    def _many_rows():
        # rows out to 6 wavelengths across the mean, 36 equal rows at 0.03
        # wavelengths and 150 seeded rows within 3 wavelengths: 216 rows, more
        # than one first-pass block
        _, transverse = _tangent_basis(TestQuadratureBatch.CLUSTER.mean_direction)
        rows = [j * 0.2 * LAM * transverse for j in range(1, 31)]
        rows += [0.03 * LAM * transverse] * 36
        rows += list(np.random.default_rng(73).uniform(-3.0 * LAM, 3.0 * LAM, (150, 3)))
        return np.array(rows)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_any_cpu_count(self, monkeypatch, helper_starts, cpus):
        # the quadrature runs on the calling thread whatever the CPU count,
        # and a batch of several first-pass blocks gives its one-row calls'
        # values and the pinned ones
        monkeypatch.setattr(oracles, "_usable_cpus", lambda: cpus)
        batch = scf_quadrature(self.CLUSTER, self.ROWS, LAM, self.SPEC)
        for i, pinned in self.PINNED.items():
            assert (batch[i].real.hex(), batch[i].imag.hex()) == pinned
        many = self._many_rows()
        first_passes = []
        rule = oracles._panel_rule

        def counted(f, lo, hi):
            k15, err = rule(f, lo, hi)
            if k15.ndim == 2:
                first_passes.append(k15.shape[0])
            return k15, err

        monkeypatch.setattr(oracles, "_panel_rule", counted)
        values = scf_quadrature(self.CLUSTER, many, LAM)
        assert len(first_passes) > 1 and sum(first_passes) == len(many)
        assert helper_starts == []
        monkeypatch.setattr(oracles, "_panel_rule", rule)
        singles = [scf_quadrature(self.CLUSTER, row, LAM) for row in many]
        assert [(v.real.hex(), v.imag.hex()) for v in values.tolist()] == [
            (v.real.hex(), v.imag.hex()) for v in singles]

    def test_one_block_starts_no_thread(self, monkeypatch, helper_starts):
        monkeypatch.setattr(oracles, "_usable_cpus", lambda: 8)
        scf_quadrature(self.CLUSTER, np.zeros((3, 3)), LAM)
        scf_quadrature(self.CLUSTER, self.ROWS[0], LAM)
        assert helper_starts == []


class TestBesselJ0:
    # the quadrature oracle's azimuth average against 40-digit mpmath: within
    # 5e-16 up to x = 40, and within 1e-17 x beyond, where the rounding of x
    # itself in the phase x - pi/4 grows with x
    @staticmethod
    def _errors(x):
        with mp.workdps(40):
            return np.array([float(abs(mp.besselj(0, mp.mpf(float(v))) - mp.mpf(float(j))))
                             for v, j in zip(x, _bessel_j0(x))])

    def test_exact_at_zero(self):
        assert _bessel_j0(np.array([0.0])).tolist() == [1.0]

    def test_near_range(self):
        x = np.concatenate([np.linspace(0.0, 40.0, 801),
                            np.random.default_rng(74).uniform(0.0, 40.0, 200),
                            [5.0, np.nextafter(5.0, 6.0), 5e-324, 1e-8]])
        assert self._errors(x).max() <= 5e-16

    def test_far_range(self):
        x = np.concatenate([np.geomspace(40.0, 1e5, 401),
                            np.random.default_rng(75).uniform(40.0, 1e5, 200)])
        assert (self._errors(x) / x).max() <= 1e-17


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

    def test_pinned_values(self):
        # SHA-256 of the little-endian doubles: a change to the sampler's
        # arithmetic or to the order of its draws changes these bits
        ensemble = build_ensemble(VmfCluster(0.4, 1.4, 10.0), 17, seed=5)
        assert [hashlib.sha256(a.astype("<f8").tobytes()).hexdigest()
                for a in (ensemble.doas, ensemble.phases)] == [
            "ee4d9ad9892a4212c8c69844548e2c541b38c21add3497f647bac53cd6c98acd",
            "fd52795a14f52b05f6cbca614ca553b88298802cdafc4c6b50abba48fecb12c4",
        ]

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

    @pytest.mark.parametrize("mu_phi, d, wavelength", [(0.0, (1e307, 0.0, 0.0), 0.1),
                                                       (0.0, (0.0, 1e300, 0.0), 1e-10),
                                                       (0.0, (0.0, 0.0, 0.0), 5e-324),
                                                       (math.pi / 4, (1.5e308, 1.5e308, 0.0),
                                                        1.0),
                                                       (0.0, (1e308, 0.0, 0.0), TWO_PI),
                                                       (0.0, (1.2e308, 1.2e308, 0.0), TWO_PI)])
    def test_overflowing_phase_refused_before_any_draw(self, monkeypatch, helper_starts,
                                                       mu_phi, d, wavelength):
        # along or across past the largest double, k0 itself at a subnormal
        # wavelength, mu . d past it, or along and across finite while a
        # path's phase along (w - 1) + across sp sin(phi) can overflow: refused
        # before a stream is made or a helper started, without a
        # floating-point warning
        drawn = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(oracles, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: drawn.append(seed) or default_rng(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the phase k0 d overflows"):
                scf_montecarlo(VmfCluster(mu_phi, 0, 10), d, wavelength, 16, 100_000, 1)
        assert drawn == [] and helper_starts == []


def test_cos_sin_matches_libm():
    # the half-angle cos and sin against numpy's, to 4 eps absolute: signed
    # zeros, the smallest subnormal, the quarter and half turns, multiples of
    # pi up to 1e300, where tan(x / 2) is largest, and log-uniform arguments
    # over the whole double range; the results land in the arrays passed in
    multiples = math.pi * 10.0 ** np.arange(301)
    spread = 10.0 ** np.random.default_rng(17).uniform(-300.0, 308.0, 100_000)
    x = np.concatenate([[0.0, -0.0, 5e-324, math.pi / 2, math.pi], multiples, spread])
    x = np.concatenate([x, -x])
    argument, scratch = x.copy(), np.empty_like(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cos, sin = _cos_sin(argument, scratch)
    assert cos is scratch and sin is argument
    eps = np.finfo(float).eps
    assert np.max(np.abs(cos - np.cos(x))) <= 4.0 * eps
    assert np.max(np.abs(sin - np.sin(x))) <= 4.0 * eps
    assert cos[:2].tolist() == [1.0, 1.0] and np.signbit(sin[:2]).tolist() == [False, True]


def _half_angle(x):
    # cos x and sin x from t = tan(x / 2): (1 - t^2) / (1 + t^2) and
    # 2 t / (1 + t^2), rounded as r - 1 and t r with r = 2 / (1 + t^2)
    t = np.tan(0.5 * x)
    r = 2.0 / (1.0 + t * t)
    return r - 1.0, t * r


def _libm(x):
    return np.cos(x), np.sin(x)


def _montecarlo_rows(cluster, d, wavelength, n_paths, n_realizations, seed,
                     cos_sin=_half_angle):
    # one realization at a time, each reading its row of the two spawned
    # streams and spelling the polar transform and the mean-frame phase out,
    # shifted by along, with the tangent factor a sine over a half turn and
    # every cosine and sine taken by cos_sin: with the half-angle form, the
    # reference the blocked evaluation must reproduce bit for bit
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
        phi = theta_rng.uniform(-0.5 * math.pi, 0.5 * math.pi, n_paths)
        if kappa == 0.0:
            w = 2.0 * u - 1.0
        else:
            w = np.clip(1.0 + np.log1p(u * math.expm1(-2.0 * kappa)) / kappa, -1.0, 1.0)
        phase = along * (w - 1.0) + across * np.sqrt(1.0 - w * w) * cos_sin(phi)[1]
        cos_phase, sin_phase = cos_sin(phase)
        real[index] = np.mean(cos_phase)
        imag[index] = np.mean(sin_phase)
    estimate = complex(np.mean(real), np.mean(imag))
    spread = float(np.sum((real - estimate.real) ** 2) + np.sum((imag - estimate.imag) ** 2))
    rotation = complex(math.cos(along), math.sin(along))
    return estimate * rotation, math.sqrt(spread / (n_realizations * (n_realizations - 1)))


@pytest.fixture
def helper_starts(monkeypatch):
    # the threads the oracles start, counted by wrapping threading.Thread
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


class TestMonteCarloBitIdentity:
    @pytest.mark.parametrize(
        "cluster, d, n_paths, n_realizations, seed, expected",
        [
            (VmfCluster(0.3, -0.4, 10.0), (0.03, -0.02, 0.01), 64, 1000, 123456,
             ((0.4541724240710599 + 0.6800250349015263j), 0.0022637319086498448)),
            (VmfCluster(2.0, 1.2, 1e5), (0.01, 0.005, -0.012), 10, 100, 2**32 - 1,
             ((0.7686961894257021 - 0.6396097743852684j), 7.456829583039823e-05)),
            (VmfCluster(-1.0, 0.0, 0.0), (0.05, 0.0, 0.02), 13, 300, 7,
             ((-0.06679302481113022 - 0.022752441081014187j), 0.015039786399794466)),
        ],
    )
    def test_pinned_values(self, cluster, d, n_paths, n_realizations, seed, expected):
        # values of the shifted half-turn contract introduced in 0.4.0, to 8 eps: numpy
        # dispatches log1p and tan by CPU feature, and with AVX-512 off the first case's
        # real part is one ulp away; a change of contract moves the values by about 1e-2
        estimate, error = scf_montecarlo(cluster, d, 0.1, n_paths, n_realizations, seed)
        pinned, pinned_error = expected
        for got, want in ((estimate.real, pinned.real), (estimate.imag, pinned.imag),
                          (error, pinned_error)):
            assert abs(got - want) <= 8.0 * np.finfo(float).eps * abs(want)

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

    @pytest.mark.parametrize("kappa", [0.0, 10.0, 700.001, 1e5])
    def test_half_angle_moves_values_at_rounding_level(self, kappa):
        # the same draws and phases with numpy's cos and sin in place of the
        # half-angle form: each cosine and sine moves by at most a few eps,
        # and so do the averages over the paths
        n_paths, n_realizations = 64, 1037
        cluster = VmfCluster(0.7, -0.4, kappa)
        d = (0.03, -0.02, 0.01)
        estimate, error = scf_montecarlo(cluster, d, 0.1, n_paths, n_realizations, seed=31)
        libm_estimate, libm_error = _montecarlo_rows(cluster, d, 0.1, n_paths, n_realizations,
                                                     31, _libm)
        assert abs(estimate - libm_estimate) <= 1e-14
        assert abs(error - libm_error) <= 1e-14

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

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("rows", [1, 10, 300])
    @pytest.mark.parametrize("kappa", [0.0, 10.0, 700.001, 1e5])
    def test_any_cpu_count(self, monkeypatch, helper_starts, cpus, rows, kappa):
        # the blocks run on the calling thread and cpus - 1 helpers, never
        # more threads than blocks (300 rows: four blocks), and give the row
        # reference's values whichever thread takes which block
        n_paths, n_realizations = 64, 1037
        monkeypatch.setattr(oracles, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(oracles, "_BLOCK_PATH_SAMPLES", rows * n_paths)
        cluster = VmfCluster(0.7, -0.4, kappa)
        d = (0.03, -0.02, 0.01)
        result = scf_montecarlo(cluster, d, 0.1, n_paths, n_realizations, seed=31)
        assert result == _montecarlo_rows(cluster, d, 0.1, n_paths, n_realizations, 31)
        assert len(helper_starts) == min(cpus, -(-n_realizations // rows)) - 1

    def test_one_row_blocks_under_fast_thread_switching(self, monkeypatch):
        # eight threads on one-row blocks, switching every 10 us: a block
        # drawn out of order, or rows written by the wrong block, would move
        # the result
        n_paths, n_realizations = 16, 600
        monkeypatch.setattr(oracles, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(oracles, "_BLOCK_PATH_SAMPLES", n_paths)
        cluster = VmfCluster(0.7, -0.4, 10.0)
        d = (0.03, -0.02, 0.01)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = scf_montecarlo(cluster, d, 0.1, n_paths, n_realizations, seed=5)
        finally:
            sys.setswitchinterval(interval)
        assert result == _montecarlo_rows(cluster, d, 0.1, n_paths, n_realizations, 5)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_block_error_raised_after_the_helpers_finish(self, monkeypatch, helper_starts,
                                                         cpus):
        calls = []
        lock = threading.Lock()

        def failing(kappa, u):
            with lock:
                calls.append(None)
                if len(calls) == 3:
                    raise FloatingPointError("third block")
            return _polar_transform(kappa, u)

        monkeypatch.setattr(oracles, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(oracles, "_BLOCK_PATH_SAMPLES", 64)
        monkeypatch.setattr(oracles, "_polar_transform", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="third block"):
            scf_montecarlo(VmfCluster(0.7, -0.4, 10.0), (0.03, -0.02, 0.01), 0.1, 64, 2000)
        assert len(helper_starts) == cpus - 1
        assert not any(helper.is_alive() for helper in helper_starts)
        assert threading.active_count() == before
        # the other threads stopped at their next block, long before the
        # last of the 2000 one-row blocks
        assert len(calls) < 2000

    def test_one_block_starts_no_thread(self, monkeypatch, helper_starts):
        monkeypatch.setattr(oracles, "_usable_cpus", lambda: 8)
        scf_montecarlo(VmfCluster(0.7, -0.4, 10.0), (0.03, -0.02, 0.01), 0.1, 64, 100)
        assert helper_starts == []
