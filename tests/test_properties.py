"""Properties of the closed-form kernel over batches whose concentration and
mean direction change from point to point, checked with Hypothesis.

Derandomized with bounded example counts, so every run checks the same
examples and the module stays fast.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vmfcorr.correlation import _closed_form

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

LAM = 1.0
K0 = 2.0 * math.pi / LAM
EPS = np.finfo(float).eps

# the isotropic point, the series/direct regime, both sides of the sinh
# overflow threshold at 700, and the large-kappa form up to radar scale
moderate_kappas = st.one_of(
    st.just(0.0),
    st.floats(1e-6, 700.0),
    st.floats(699.0, 701.0),
    st.floats(701.0, 2000.0),
)
radar_kappas = st.floats(1e4, 1e5)
kappas = st.one_of(moderate_kappas, radar_kappas)
units = (st.tuples(*[st.floats(-1.0, 1.0)] * 3)
         .filter(lambda v: math.hypot(*v) > 0.1)
         .map(lambda v: np.array(v) / math.hypot(*v)))
lengths = st.floats(-3.0 * LAM, 3.0 * LAM)
displacements = st.tuples(lengths, lengths, lengths).map(np.array)


def _batches(kappa_strategy):
    # displacements along the mean, where |R| stays closest to 1, and in any
    # direction
    along_mean = st.tuples(kappa_strategy, units, lengths).map(
        lambda p: (p[0], p[1], p[2] * p[1]))
    points = st.one_of(st.tuples(kappa_strategy, units, displacements), along_mean)
    return st.lists(points, min_size=1, max_size=8)


batches = _batches(kappas)
rotations = (st.tuples(*[st.floats(-1.0, 1.0)] * 4)
             .filter(lambda q: math.hypot(*q) > 0.1)
             .map(lambda q: np.array(q) / math.hypot(*q)))


def _columns(batch):
    kappa, mean, d = zip(*batch)
    return np.array(kappa), np.array(mean), np.array(d)


def _rotation_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _magnitude_at_most_one(batch):
    kappa, mean, d = _columns(batch)
    assert np.all(np.abs(_closed_form(kappa, mean, d, LAM)) <= 1.0 + 1e-12)


@PROPERTY
@given(_batches(moderate_kappas))
def test_magnitude_at_most_one(batch):
    _magnitude_at_most_one(batch)


@PROPERTY
@given(_batches(radar_kappas))
@example([(67037.38671875, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 0.015625]))])
def test_magnitude_at_most_one_at_radar_scale(batch):
    _magnitude_at_most_one(batch)


@PROPERTY
@given(batches)
def test_reversed_displacement_conjugates(batch):
    kappa, mean, d = _columns(batch)
    forward = _closed_form(kappa, mean, d, LAM)
    assert np.array_equal(_closed_form(kappa, mean, -d, LAM), np.conj(forward))


@PROPERTY
@given(batches, rotations)
def test_common_rotation_of_mean_and_displacement(batch, q):
    kappa, mean, d = _columns(batch)
    rotation = _rotation_matrix(q)
    rotated = _closed_form(kappa, mean @ rotation.T, d @ rotation.T, LAM)
    # rotating rounds |d|^2 and mean . d to within a few ulps, which moves log R
    # by about eps (kappa + k0 |d|); |R| <= 1 turns that into an absolute bound
    scale = 1.0 + kappa + K0 * np.linalg.norm(d, axis=-1)
    assert np.all(np.abs(rotated - _closed_form(kappa, mean, d, LAM)) <= 64 * EPS * scale)
