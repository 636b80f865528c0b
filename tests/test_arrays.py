import math

import numpy as np
import pytest

from vmfcorr import (
    ArrayGeometry,
    VmfCluster,
    circular_array,
    correlation_matrix,
    linear_array,
    planar_grid,
    scf,
    scf_along_path,
    stationarity_check,
)

LAM = 0.5


class TestLinearArray:
    def test_two_elements(self):
        geometry = linear_array(2, LAM / 2, (1.0, 0.0, 0.0))
        np.testing.assert_allclose(geometry.positions, [[0, 0, 0], [LAM / 2, 0, 0]])
        assert geometry.reference_index == 0

    def test_equal_steps(self):
        geometry = linear_array(5, 0.2, (0.0, 1.0, 0.0))
        steps = np.diff(geometry.positions, axis=0)
        np.testing.assert_allclose(steps, np.tile(steps[0], (4, 1)), atol=1e-15)

    def test_single_element(self):
        geometry = linear_array(1, 0.3)
        np.testing.assert_allclose(geometry.positions, [[0, 0, 0]])

    def test_reference_centered_for_odd_counts(self):
        geometry = linear_array(7, 0.1, (1.0, 0.0, 0.0))
        assert geometry.reference_index == 3
        np.testing.assert_allclose(geometry.positions[3], [0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(geometry.positions[0], [-0.3, 0, 0])

    def test_axis_normalized(self):
        geometry = linear_array(2, 1.0, (0.0, 2.0, 0.0))
        np.testing.assert_allclose(geometry.positions[1], [0, 1.0, 0])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            linear_array(0, 0.1)
        with pytest.raises(ValueError):
            linear_array(3, 0.0)
        with pytest.raises(ValueError):
            linear_array(3, 0.1, (0.0, 0.0, 0.0))


class TestCircularArray:
    def test_adjacent_chords(self):
        radius = 0.7
        geometry = circular_array(4, radius)
        chords = np.linalg.norm(np.diff(geometry.positions, axis=0), axis=1)
        np.testing.assert_allclose(chords, 2 * radius * math.sin(math.pi / 4), rtol=1e-12)

    def test_adjacent_arc_length(self):
        radius = 1.3
        n = 9
        geometry = circular_array(n, radius)
        chords = np.linalg.norm(np.diff(geometry.positions, axis=0), axis=1)
        arcs = 2 * radius * np.arcsin(np.clip(chords / (2 * radius), -1, 1))
        np.testing.assert_allclose(arcs, 2 * math.pi * radius / n, rtol=1e-12)

    def test_reference_at_origin(self):
        geometry = circular_array(11, 0.4)
        np.testing.assert_allclose(
            geometry.positions[geometry.reference_index], [0, 0, 0], atol=1e-12
        )

    def test_horizontal(self):
        geometry = circular_array(8, 0.9)
        assert np.all(geometry.positions[:, 2] == 0.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            circular_array(0, 1.0)
        with pytest.raises(ValueError):
            circular_array(4, -1.0)


class TestPlanarGrid:
    def test_two_by_two(self):
        geometry = planar_grid(2, 2, 0.3, 0.4)
        assert geometry.n_elements == 4
        xs = sorted(set(geometry.positions[:, 0]))
        ys = sorted(set(geometry.positions[:, 1]))
        assert xs[1] - xs[0] == pytest.approx(0.3)
        assert ys[1] - ys[0] == pytest.approx(0.4)

    def test_single_element(self):
        geometry = planar_grid(1, 1, 0.1, 0.1)
        np.testing.assert_allclose(geometry.positions, [[0, 0, 0]])

    def test_degenerates_to_linear(self):
        grid = planar_grid(3, 1, 0.2, 0.1)
        line = linear_array(3, 0.2, (1.0, 0.0, 0.0))
        np.testing.assert_allclose(grid.positions, line.positions, atol=1e-15)
        assert grid.reference_index == line.reference_index

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            planar_grid(0, 1, 0.1, 0.1)
        with pytest.raises(ValueError):
            planar_grid(2, 2, 0.1, 0.0)


class TestArrayGeometry:
    def test_duplicate_guard(self):
        with pytest.raises(ValueError):
            ArrayGeometry(positions=np.zeros((2, 3)))

    def test_separation_threshold(self):
        close = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3 + 5e-10], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="closer than 1e-9 m"):
            ArrayGeometry(positions=close)
        apart = close.copy()
        apart[1, 2] = 0.3 + 2e-9
        assert ArrayGeometry(positions=apart).n_elements == 3

    def test_duplicate_in_last_chunk(self):
        # the separation check runs in row chunks; the only close pair sits
        # in the last one
        positions = linear_array(1000, 0.01).positions.copy()
        positions[-1] = positions[-2]
        with pytest.raises(ValueError, match="closer than 1e-9 m"):
            ArrayGeometry(positions=positions)

    def test_reference_range(self):
        with pytest.raises(ValueError):
            ArrayGeometry(positions=np.array([[0.0, 0, 0]]), reference_index=1)


class TestCorrelationMatrix:
    def test_single_element(self):
        matrix = correlation_matrix(
            linear_array(1, 0.1), [VmfCluster(0, 0, 5.0)], LAM
        )
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == 1.0 + 0.0j

    def test_isotropic_half_wavelength(self):
        matrix = correlation_matrix(
            linear_array(2, LAM / 2), [VmfCluster(0.4, 0.2, 0.0)], LAM
        )
        assert abs(matrix[0, 1]) < 1e-14
        assert abs(matrix[1, 0]) < 1e-14

    def test_linear_sixteen_elements_psd(self):
        matrix = correlation_matrix(
            linear_array(16, LAM / 4), [VmfCluster(0.7, 0.1, 10.0)], LAM
        )
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert eigenvalues.min() >= -1e-10

    def test_randomized_invariants(self):
        rng = np.random.default_rng(81)
        for _ in range(10):
            n = int(rng.integers(2, 25))
            positions = rng.uniform(-3, 3, size=(n, 3)) * LAM
            geometry = ArrayGeometry(positions=positions, reference_index=0)
            clusters = [
                VmfCluster(
                    rng.uniform(-math.pi, math.pi),
                    rng.uniform(-math.pi / 2, math.pi / 2),
                    rng.uniform(0, 80),
                )
            ]
            matrix = correlation_matrix(geometry, clusters, LAM)
            assert np.all(np.diag(matrix) == 1.0 + 0.0j)
            assert np.max(np.abs(matrix - matrix.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(matrix).min() >= -1e-10


class TestScfAlongPath:
    def test_reference_point(self):
        geometry = linear_array(9, 0.2)
        curve = scf_along_path(geometry, [VmfCluster(0.5, 0.0, 10.0)], LAM)
        ref = curve[geometry.reference_index]
        assert ref[0] == 0.0
        assert ref[1] == 1.0 + 0.0j

    def test_linear_magnitude_even(self):
        geometry = linear_array(41, 0.15 * LAM, (1.0, 0.0, 0.0))
        clusters = [VmfCluster(math.radians(45.0), 0.0, 10.0)]
        curve = scf_along_path(geometry, clusters, LAM)
        report = stationarity_check(curve, tol=1e-10)
        assert report.is_even_in_magnitude
        assert report.max_asymmetry < 1e-12

    def test_linear_even_for_any_orientation(self):
        rng = np.random.default_rng(82)
        for _ in range(5):
            axis = rng.normal(size=3)
            clusters = [
                VmfCluster(
                    rng.uniform(-math.pi, math.pi),
                    rng.uniform(-math.pi / 2, math.pi / 2),
                    rng.uniform(0, 40),
                )
            ]
            geometry = linear_array(21, 0.2 * LAM, axis)
            report = stationarity_check(scf_along_path(geometry, clusters, LAM))
            assert report.max_asymmetry < 1e-12

    def test_circular_asymmetry(self):
        # circumference spanning six wavelengths, mean arrival at 45 degrees azimuth
        radius = 6 * LAM / (2 * math.pi)
        geometry = circular_array(121, radius)
        clusters = [VmfCluster(math.radians(45.0), 0.0, 10.0)]
        report = stationarity_check(scf_along_path(geometry, clusters, LAM))
        assert not report.is_even_in_magnitude
        assert report.max_asymmetry > 0.01

    def test_circular_isotropic_symmetric(self):
        radius = 6 * LAM / (2 * math.pi)
        geometry = circular_array(121, radius)
        report = stationarity_check(
            scf_along_path(geometry, [VmfCluster(0.3, 0.1, 0.0)], LAM), tol=1e-10
        )
        assert report.is_even_in_magnitude


class TestPlanarField:
    def test_elongation_along_mean_direction(self):
        # concentrated scattering correlates farther along the in-plane
        # projection of the mean arrival direction than across it
        cluster = VmfCluster(math.radians(45.0), 0.0, 10.0)
        along = LAM * np.array([math.cos(math.radians(45.0)), math.sin(math.radians(45.0)), 0.0])
        across = LAM * np.array([math.cos(math.radians(135.0)), math.sin(math.radians(135.0)), 0.0])
        assert abs(scf(cluster, along, LAM)) > abs(scf(cluster, across, LAM))

    def test_isotropic_field_is_radially_symmetric(self):
        cluster = VmfCluster(0.8, 0.3, 0.0)
        rng = np.random.default_rng(83)
        for _ in range(50):
            radius = rng.uniform(0.1, 3.0) * LAM
            alpha, gamma = rng.uniform(0, 2 * math.pi, 2)
            a = scf(cluster, radius * np.array([math.cos(alpha), math.sin(alpha), 0.0]), LAM)
            b = scf(cluster, radius * np.array([math.cos(gamma), math.sin(gamma), 0.0]), LAM)
            assert abs(a - b) < 1e-13


class TestStationarityCheck:
    def test_requires_matched_pairs(self):
        geometry = linear_array(4, 0.2)  # reference at index 1, unmatched tail
        curve = scf_along_path(geometry, [VmfCluster(0, 0, 1.0)], LAM)
        with pytest.raises(ValueError):
            stationarity_check(curve)

    def test_tolerance_validation(self):
        geometry = linear_array(3, 0.2)
        curve = scf_along_path(geometry, [VmfCluster(0, 0, 1.0)], LAM)
        with pytest.raises(ValueError):
            stationarity_check(curve, tol=0.0)
