import json
import math
from dataclasses import replace
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmfcorr import (
    DomainError,
    RadarScenario,
    SPEED_OF_LIGHT,
    acf,
    decorrelation_table,
    decorrelation_time,
    doppler_params,
    radar_acf_curve,
    scenario_to_cluster_and_motion,
    scf,
)
from vmfcorr import correlation
from vmfcorr.cli import EXIT_OK, parse_config, run

from mp_reference import reference_log
from test_correlation import _assert_scans_own_windows, _searched_points

BASE = RadarScenario(
    carrier_frequency=10e9,
    target_elevation=math.radians(20.0),
    target_angular_width=math.radians(2.0),
    target_speed=150.0 / 3.6,
)


class TestScenarioConversion:
    def test_concentration_from_width(self):
        cluster, _, _ = scenario_to_cluster_and_motion(BASE)
        assert cluster.kappa == pytest.approx(13131.55873845995)

    def test_wavelength(self):
        assert BASE.wavelength == pytest.approx(0.0299792458)

    def test_receding_at_zero_elevation_is_fully_radial(self):
        scenario = replace(BASE, target_elevation=0.0)
        cluster, motion, lam = scenario_to_cluster_and_motion(scenario)
        params = doppler_params(cluster, motion, lam, monostatic=False)
        assert params.f_mu == pytest.approx(-params.f_m, rel=1e-12)

    def test_mean_doppler_magnitude(self):
        cluster, motion, lam = scenario_to_cluster_and_motion(BASE)
        params = doppler_params(cluster, motion, lam, monostatic=False)
        assert abs(params.f_mu) == pytest.approx(
            params.f_m * math.cos(BASE.target_elevation), rel=1e-12
        )
        assert params.f_mu < 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(BASE, carrier_frequency=0.0)
        with pytest.raises(ValueError):
            replace(BASE, target_angular_width=4.0)
        with pytest.raises(ValueError):
            replace(BASE, target_speed=-1.0)
        # abs(nan) > pi/2 is False, so a NaN elevation needs its own refusal;
        # the kernel would report it as a radicand out of domain
        for elevation in (math.nan, math.inf):
            with pytest.raises(ValueError, match="target elevation"):
                replace(BASE, target_elevation=elevation)

    def test_width_too_narrow_for_a_finite_kappa(self):
        # the scenario accepts any width in (0, pi); its conversion names the
        # width whose concentration is not a finite double
        for width_deg in (1e-152, 1e-160):
            scenario = replace(BASE, target_angular_width=math.radians(width_deg))
            with pytest.raises(ValueError, match="too narrow for a finite kappa"):
                scenario_to_cluster_and_motion(scenario)
        scenario = replace(BASE, target_angular_width=math.radians(1e-150))
        assert math.isfinite(scenario_to_cluster_and_motion(scenario)[0].kappa)


class TestAcfCurve:
    def test_unit_at_zero_lag(self):
        curve = radar_acf_curve(BASE, [0.0, 0.01])
        assert curve[0] == (0.0, 1.0)

    def test_half_level_near_reference_lags(self):
        curve = dict(radar_acf_curve(BASE, [0.024]))
        assert abs(curve[0.024] - 0.5) < 0.1
        narrow = replace(BASE, target_angular_width=math.radians(0.5))
        curve = dict(radar_acf_curve(narrow, [0.090]))
        assert abs(curve[0.090] - 0.5) < 0.1

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            radar_acf_curve(BASE, [])
        with pytest.raises(ValueError):
            radar_acf_curve(BASE, [0.02, 0.01])
        with pytest.raises(ValueError):
            radar_acf_curve(BASE, [-0.01, 0.01])

    def test_magnitude_insensitive_to_motion_sign(self):
        approaching = replace(BASE, motion_azimuth=math.pi)
        lags = np.linspace(0.0, 0.05, 11)
        receding_curve = radar_acf_curve(BASE, lags)
        approaching_curve = radar_acf_curve(approaching, lags)
        for (_, a), (_, b) in zip(receding_curve, approaching_curve):
            assert a == pytest.approx(b, abs=1e-12)


class TestDecorrelationTable:
    def test_reference_decorrelation_times(self):
        widths = [math.radians(w) for w in (2.0, 1.0, 0.5)]
        speeds = [150.0 / 3.6, 40.0 / 3.6]
        table = decorrelation_table(widths, speeds, BASE)
        reference_fast = [0.024, 0.046, 0.090]
        for row, expected in zip(table[:, 0], reference_fast):
            assert abs(row - expected) / expected < 0.15
        assert abs(table[0, 1] - 0.085) / 0.085 < 0.15

    def test_monotone_in_width(self):
        widths = [math.radians(w) for w in (2.0, 1.0, 0.5)]
        table = decorrelation_table(widths, [150.0 / 3.6], BASE)
        assert table[0, 0] < table[1, 0] < table[2, 0]

    def test_monotone_in_speed(self):
        speeds = [v / 3.6 for v in (40.0, 120.0, 150.0)]
        table = decorrelation_table([math.radians(1.0)], speeds, BASE)
        assert table[0, 0] > table[0, 1] > table[0, 2]

    def test_doubling_speed_halves_time(self):
        table = decorrelation_table(
            [math.radians(2.0)], [20.0 / 3.6, 40.0 / 3.6], BASE
        )
        assert table[0, 1] == pytest.approx(table[0, 0] / 2.0, rel=1e-4)

    # down to 1e-8 deg, kappa 5.25e20: the crossing lies at k0 |d| ~ 100 kappa along
    # the mean, where a = (k0 |d|)^2 and b = kappa k0 |d| would cancel
    @pytest.mark.parametrize("width_deg", [2.0, 1.0, 0.5, 0.01, 1e-3, 1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("threshold", [0.05, 0.01])
    def test_low_threshold_follows_radial_law(self, threshold, width_deg):
        # at zero elevation a receding target moves along the mean direction,
        # where |ACF| ~ kappa / sqrt(kappa^2 + (2 pi f_m t)^2) falls to the
        # threshold at t = kappa sqrt(1 / threshold^2 - 1) / (2 pi f_m), past a
        # horizon of (10 + 2 kappa) / f_m once the threshold is below 0.079
        base = replace(BASE, target_elevation=0.0)
        width = math.radians(width_deg)
        speeds = [150.0 / 3.6, 40.0 / 3.6]
        table = decorrelation_table([width], speeds, base, threshold)
        for j, speed in enumerate(speeds):
            scenario = replace(base, target_angular_width=width, target_speed=speed)
            cluster, motion, lam = scenario_to_cluster_and_motion(scenario)
            f_m = doppler_params(cluster, motion, lam, base.monostatic).f_m
            radial = cluster.kappa * math.sqrt(1.0 / threshold**2 - 1.0) / (2.0 * math.pi)
            assert table[0, j] == pytest.approx(radial / f_m, rel=1e-5)

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            decorrelation_table([], [10.0], BASE)
        with pytest.raises(ValueError):
            decorrelation_table([math.radians(1.0)], [], BASE)

    def test_zero_speed(self):
        with pytest.raises(ValueError):
            decorrelation_table([math.radians(1.0)], [10.0, 0.0], BASE)

    @pytest.mark.parametrize("widths_deg, speeds_kmh", [
        ([200.0, 1.0], [40.0]),  # a width past pi in the first row
        ([1.0, 2.0, 0.0], [40.0, 150.0]),  # a zero width in a later row
        ([1.0, math.nan], [40.0]),
        ([1.0, 2.0], [40.0, -1.0]),  # a negative speed
        ([1.0, 2.0], [math.inf, 40.0]),  # an infinite speed
        ([1.0], [40.0, math.nan]),
        ([1e-160, 1.0], [40.0]),  # too narrow for a finite kappa
        ([1.0, 1e-160], [40.0, 150.0]),
        ([200.0], [math.inf]),  # a cell checks its width before its speed
        ([1e-160], [-1.0, 40.0]),  # and its speed before its width's kappa
        ([1e-160], [40.0, -1.0]),  # a narrow first width before a later speed
        ([1.0, 1e-160], [40.0, -1.0]),  # a speed in the first row before a later width
        ([1.0, 200.0], [math.inf]),
        ([1.0, 1e-160, 200.0], [40.0]),
        ([1.0, 200.0, 1e-160], [40.0]),
        ([1.0, 2.0], [40.0, 0.0]),  # a zero speed, refused by the search
        ([1.0, 200.0], [0.0]),  # after every cell's own checks
    ])
    def test_refuses_as_the_per_cell_loop(self, widths_deg, speeds_kmh):
        # the first refused cell in row-major order decides the error: its
        # scenario and conversion, then the search of every cell in turn
        widths = [math.radians(w) for w in widths_deg]
        speeds = [v / 3.6 for v in speeds_kmh]
        with pytest.raises(ValueError) as expected:
            cells = [scenario_to_cluster_and_motion(replace(BASE, target_angular_width=width,
                                                            target_speed=speed))
                     for width in widths for speed in speeds]
            for cluster, motion, lam in cells:
                decorrelation_time(cluster, motion, lam, BASE.monostatic)
        with pytest.raises(ValueError) as refused:
            decorrelation_table(widths, speeds, BASE)
        assert type(refused.value) is type(expected.value)
        assert str(refused.value) == str(expected.value)

    @pytest.mark.parametrize("base, threshold", [
        (BASE, 0.5),
        (replace(BASE, monostatic=False), 0.3),
        (replace(BASE, motion_azimuth=math.radians(-115.0)), 0.5),
        (replace(BASE, target_elevation=0.0), 0.5),  # radial: the heading is -mean
        (replace(BASE, target_elevation=0.0, motion_azimuth=math.radians(35.0)), 0.2),
        (replace(BASE, target_elevation=math.pi / 2), 0.5),  # transverse
        (replace(BASE, target_elevation=-math.pi / 2, motion_azimuth=2.0), 0.7),
    ])
    def test_equals_per_cell_decorrelation_times(self, base, threshold):
        # the cells are refined together; each must keep its own brackets, and
        # the table's one mean direction and heading are each cell's own
        widths = [math.radians(w) for w in (0.25, 0.6, 1.5, 4.0)]
        speeds = [v / 3.6 for v in (10.0, 55.0, 170.0, 300.0)]
        table = decorrelation_table(widths, speeds, base, threshold)
        for i, width in enumerate(widths):
            for j, speed in enumerate(speeds):
                scenario = replace(base, target_angular_width=width, target_speed=speed)
                cluster, motion, lam = scenario_to_cluster_and_motion(scenario)
                assert table[i, j] == decorrelation_time(cluster, motion, lam, base.monostatic,
                                                         threshold)

    def test_scalar_search_at_a_concentrated_target(self):
        # 1 deg at 40 km/h, kappa 52525: the crossing lies far past 10 / f_m, so
        # the scalar search needs the table's horizon rule to find it
        scenario = replace(BASE, target_angular_width=math.radians(1.0), target_speed=40.0 / 3.6)
        cluster, motion, lam = scenario_to_cluster_and_motion(scenario)
        table = decorrelation_table([scenario.target_angular_width], [scenario.target_speed],
                                    scenario)
        t = decorrelation_time(cluster, motion, lam, scenario.monostatic)
        assert t == table[0, 0]
        assert t > 10.0 / doppler_params(cluster, motion, lam, scenario.monostatic).f_m
        assert _brackets_crossing(scenario, t)

    def test_horizons_past_1e302_seconds(self):
        # at 1e-300 km/h the horizons are 3.5e302 s (4 deg) and 9.1e304 s
        # (0.25 deg); the search runs in wavelengths travelled, to 6,576 and
        # 1.7e6, so only the horizon's check in seconds and the final tau / f_m
        # see these magnitudes
        widths = [math.radians(w) for w in (4.0, 0.25)]
        speeds = [1e-300 / 3.6, 40.0 / 3.6]
        table = decorrelation_table(widths, speeds, BASE)
        for i, width in enumerate(widths):
            for j, speed in enumerate(speeds):
                scenario = replace(BASE, target_angular_width=width, target_speed=speed)
                assert _brackets_crossing(scenario, table[i, j])
        assert table[0, 0] == pytest.approx(1.695e300, rel=1e-4)

    def test_lag_grids_past_9e307_seconds(self):
        # at 5.6e-304 and 5.2e-304 km/h the 0.25 deg horizons are 1.6e308 and
        # 1.7e308 s, past the 9e307 s where a doubled lag overflows; in
        # wavelengths travelled the search is that of every other speed, and
        # only the horizon's check in seconds and tau / f_m see these lags
        widths = [math.radians(w) for w in (4.0, 0.25)]
        speeds = [5.6e-304 / 3.6, 5.2e-304 / 3.6]
        table = decorrelation_table(widths, speeds, BASE)
        for i, width in enumerate(widths):
            for j, speed in enumerate(speeds):
                scenario = replace(BASE, target_angular_width=width, target_speed=speed)
                assert _brackets_crossing(scenario, table[i, j])
        assert table[1, 0] == pytest.approx(4.840e304, rel=1e-4)

    def test_bisection_brackets_past_9e307_seconds(self):
        # 4 deg at 3.92e-309 m/s crosses near 1.2e308 s; with an explicit
        # horizon of 1.7e308 s the refinement brackets lie past 9e307 s, where
        # 0.5 * (lo + hi) would overflow
        scenario = replace(BASE, target_angular_width=math.radians(4.0), target_speed=3.92e-309)
        cluster, motion, lam = scenario_to_cluster_and_motion(scenario)
        t = decorrelation_time(cluster, motion, lam, scenario.monostatic, horizon=1.7e308)
        assert t == pytest.approx(1.201e308, rel=1e-3)
        assert _brackets_crossing(scenario, t)


def _brackets_crossing(scenario: RadarScenario, t: float, threshold: float = 0.5) -> bool:
    # the 40-digit |ACF| falls through the threshold within 2e-6 relative of t,
    # the bracket perfbench/checks.py puts around each radar-table entry; the
    # velocity is doubled, not the lag, so lags past 9e307 s stay finite
    cluster, motion, lam = scenario_to_cluster_and_motion(scenario)
    factor = 2.0 if scenario.monostatic else 1.0
    before, after = (mp.exp(reference_log(cluster, lag * (factor * motion.velocity), lam).real)
                     for lag in (t * (1.0 - 2e-6), t * (1.0 + 2e-6)))
    return t > 0.0 and before >= threshold > after


# The radar-table of the benchmark's radar-chain workload (perfbench/workloads.py),
# as float.hex: a change to the grid or to the brackets any section search keeps
# changes these bits. Each width is searched once, in wavelengths travelled, so a
# row's times share their significand wherever the speeds differ by a power of 2.
_PINNED_TABLE = [
    "0x1.72473220f7caap-8", "0x1.72473220f7caap-7", "0x1.5b22befee84dfp-6",
    "0x1.5b22befee84dfp-5", "0x1.5b22befee84dfp-3", "0x1.721d21223c36ep-7",
    "0x1.721d21223c36ep-6", "0x1.5afb4f1018737p-5", "0x1.5afb4f1018737p-4",
    "0x1.5afb4f1018737p-2", "0x1.72128ee4e2918p-6", "0x1.72128ee4e2918p-5",
    "0x1.5af165f694686p-4", "0x1.5af165f694686p-3", "0x1.5af165f694686p-1",
    "0x1.720fed10e4c6bp-5", "0x1.720fed10e4c6bp-4", "0x1.5aeeee3fd67a4p-3",
    "0x1.5aeeee3fd67a4p-2", "0x1.5aeeee3fd67a4p+0", "0x1.720f47a1a3e9dp-4",
    "0x1.720f47a1a3e9dp-3", "0x1.5aee532789ab3p-2", "0x1.5aee532789ab3p-1",
    "0x1.5aee532789ab3p+1",
]


def test_pinned_radar_table(tmp_path):
    out = tmp_path / "radar-table.csv"
    doc = {"mode": "radar-table", "out": str(out), "carrier_frequency_hz": 1e10,
           "elevation_deg": 20.0, "monostatic": True,
           "widths_deg": [4.0, 2.0, 1.0, 0.5, 0.25],
           "speeds_kmh": [300.0, 150.0, 80.0, 40.0, 10.0]}
    assert run(parse_config(json.dumps(doc))) == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert [float(row.split(",")[2]).hex() for row in rows] == _PINNED_TABLE


def test_radar_table_at_horizons_past_1e302_seconds(tmp_path):
    # the console script's table at 1e-300 km/h: horizons past 1e302 s, which
    # only the horizon's check in seconds and the final tau / f_m see
    out = tmp_path / "radar-table.csv"
    doc = {"mode": "radar-table", "out": str(out), "carrier_frequency_hz": 1e10,
           "elevation_deg": 20.0, "widths_deg": [4.0, 1.0, 0.25], "speeds_kmh": [1e-300, 40.0]}
    assert run(parse_config(json.dumps(doc))) == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 6
    for row in rows:
        width, speed, t = map(float, row.split(","))
        scenario = replace(BASE, target_angular_width=math.radians(width),
                           target_speed=speed / 3.6)
        assert _brackets_crossing(scenario, t)


def test_radar_table_at_lag_grids_past_9e307_seconds(tmp_path):
    # the console script's table at 5.6e-304 and 5.2e-304 km/h: horizons past
    # 9e307 s, where a doubled lag would overflow; in seconds, only the horizon's
    # check and the final tau / f_m see them
    out = tmp_path / "radar-table.csv"
    doc = {"mode": "radar-table", "out": str(out), "carrier_frequency_hz": 1e10,
           "elevation_deg": 20.0, "widths_deg": [4.0, 0.25], "speeds_kmh": [5.6e-304, 5.2e-304]}
    assert run(parse_config(json.dumps(doc))) == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 4
    for row in rows:
        width, speed, t = map(float, row.split(","))
        scenario = replace(BASE, target_angular_width=math.radians(width),
                           target_speed=speed / 3.6)
        assert _brackets_crossing(scenario, t)


def test_radar_table_at_a_1e300_hz_carrier(tmp_path):
    # the wavelength is 3.0e-292 m: k0^2 overflows and the displacements'
    # squares underflow, while the phase k0 |d| at the crossing is ordinary
    out = tmp_path / "radar-table.csv"
    doc = {"mode": "radar-table", "out": str(out), "carrier_frequency_hz": 1e300,
           "elevation_deg": 20.0, "widths_deg": [4.0, 0.25], "speeds_kmh": [40.0]}
    assert run(parse_config(json.dumps(doc))) == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        width, speed, t = map(float, row.split(","))
        scenario = replace(BASE, carrier_frequency=1e300, target_angular_width=math.radians(width),
                           target_speed=speed / 3.6)
        assert _brackets_crossing(scenario, t)


def test_radar_table_kernel_call_budget(monkeypatch):
    # the pinned table: one search per width in wavelengths travelled, its scan
    # in its own windows from its first tau past half its crossing floor, and
    # its sixteen-section search, two levels per call, take 3 kernel calls over
    # 460 points, the same points as a table of one speed; one level per call
    # took 5 calls over the same 460, one search per cell 5 over 2,300, shared
    # 128-column windows aligned to multiples of 128 7 over 5,468, a scan from
    # every cell's first lag 8 over 11,228, and a whole-grid call and then one
    # bisection level per call 17 over 16,400. A scan from the first column
    # gives the same bits.
    widths = [math.radians(w) for w in (4.0, 2.0, 1.0, 0.5, 0.25)]
    speeds = [v / 3.6 for v in (300.0, 150.0, 80.0, 40.0, 10.0)]
    sizes, closed_form = [], correlation._closed_form

    def counted(*args):
        value = closed_form(*args)
        sizes.append(value.size)
        return value

    monkeypatch.setattr(correlation, "_closed_form", counted)
    search = partial(decorrelation_table, widths, speeds, BASE)
    times, points = _searched_points(lambda: search().ravel())
    assert times == _PINNED_TABLE
    assert len(sizes) == 3
    assert sum(sizes) == 460
    assert _searched_points(lambda: search().ravel(), from_first_column=True)[0] == times
    one_speed = partial(decorrelation_table, widths, speeds[:1], BASE)
    assert _searched_points(lambda: one_speed().ravel())[1] == points
    clusters, motions, _ = zip(*(scenario_to_cluster_and_motion(
        replace(BASE, target_angular_width=width, target_speed=speed))
        for width in widths for speed in speeds))
    _assert_scans_own_windows(clusters, motions, BASE.wavelength, BASE.monostatic, 0.5,
                              list(map(float.fromhex, times)), points)


def test_mixed_regime_table_equals_cells_searched_alone(monkeypatch):
    # widths 170 and 9 deg lie below kappa 700 and 8 and 4 deg above it, so the
    # table's kernel calls mix the regimes and take each by mask, while a cell
    # searched alone covers one regime per call; every time keeps its bits
    widths = [math.radians(w) for w in (170.0, 9.0, 8.0, 4.0)]
    speeds = [v / 3.6 for v in (300.0, 40.0, 10.0)]
    kappas, closed_form = [], correlation._closed_form

    def recorded(kappa, *args):
        kappas.append(np.ravel(kappa))
        return closed_form(kappa, *args)

    monkeypatch.setattr(correlation, "_closed_form", recorded)
    table = decorrelation_table(widths, speeds, BASE)
    assert all(k.min() <= correlation.LARGE_KAPPA_THRESHOLD < k.max() for k in kappas[:2])
    for row, width in zip(table, widths):
        for t, speed in zip(row, speeds):
            cell = replace(BASE, target_angular_width=width, target_speed=speed)
            cluster, motion, wavelength = scenario_to_cluster_and_motion(cell)
            assert decorrelation_time(cluster, motion, wavelength, True) == t


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(widths_deg=st.lists(st.floats(0.1, 30.0), min_size=1, max_size=3),
       speeds_kmh=st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=3),
       elevation_deg=st.floats(-90.0, 90.0), azimuth_deg=st.floats(-180.0, 180.0),
       monostatic=st.booleans(), threshold=st.sampled_from([0.05, 0.3, 0.5, 0.9]))
def test_doubled_speeds_halve_every_time(widths_deg, speeds_kmh, elevation_deg, azimuth_deg,
                                          monostatic, threshold):
    # f_m = f speed / lambda doubles exactly with the speed, and a cell's search in
    # wavelengths travelled does not depend on its speed, so tau / f_m halves bit
    # for bit; these times, about 1e-5 to 1e3 s, are far from subnormal
    base = replace(BASE, target_elevation=math.radians(elevation_deg),
                   motion_azimuth=math.radians(azimuth_deg), monostatic=monostatic)
    widths, speeds = [math.radians(w) for w in widths_deg], [v / 3.6 for v in speeds_kmh]
    table = decorrelation_table(widths, speeds, base, threshold)
    doubled = decorrelation_table(widths, [2.0 * v for v in speeds], base, threshold)
    assert np.array_equal(doubled, 0.5 * table)


def test_horizon_out_of_domain_past_the_crossing():
    # the 170 deg cell at 40 km/h and this threshold: its default horizon lies at
    # 5.0e153 wavelengths, where the kernel's radicand is not a finite double, and
    # its crossing at 7.2e152; the scan leaves out the lags out of domain, so the
    # time equals that of a search to an in-domain horizon past the crossing
    scenario = replace(BASE, target_angular_width=math.radians(170.0), target_speed=40.0 / 3.6)
    cluster, motion, lam = scenario_to_cluster_and_motion(scenario)
    threshold = 4.3949870217446895e-154
    horizon = (10.0 + cluster.kappa / threshold) / doppler_params(cluster, motion, lam, True).f_m
    with pytest.raises(DomainError):
        acf(cluster, motion, horizon, lam, monostatic=True)
    t = decorrelation_time(cluster, motion, lam, True, threshold)
    assert abs(acf(cluster, motion, 2.0 * t, lam, monostatic=True)) < threshold
    assert decorrelation_time(cluster, motion, lam, True, threshold, horizon=2.0 * t) == t


class TestMonostaticConsistency:
    def test_doubled_displacement(self):
        cluster, motion, lam = scenario_to_cluster_and_motion(BASE)
        for dt in (0.001, 0.005, 0.02):
            mono = acf(cluster, motion, dt, lam, monostatic=True)
            doubled = scf(cluster, 2.0 * dt * motion.velocity, lam)
            assert abs(abs(mono) - abs(doubled)) < 1e-12

    def test_matches_bistatic_at_double_lag(self):
        cluster, motion, lam = scenario_to_cluster_and_motion(BASE)
        for dt in (0.002, 0.01):
            mono = acf(cluster, motion, dt, lam, monostatic=True)
            bistatic = acf(cluster, motion, 2.0 * dt, lam, monostatic=False)
            assert abs(abs(mono) - abs(bistatic)) < 1e-12


class TestSpeedOfLight:
    def test_value(self):
        assert SPEED_OF_LIGHT == 299_792_458.0
