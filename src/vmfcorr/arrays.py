"""Antenna-array geometries and spatial-correlation analysis across them."""

import math
from dataclasses import dataclass

import numpy as np

from .correlation import _check_wavelength, scf_multicluster

_MIN_ELEMENT_SEPARATION = 1e-9
# Element pairs per chunk of the separation check (384 kB of differences).
_PAIR_CHUNK = 1 << 14


@dataclass(frozen=True)
class ArrayGeometry:
    """Ordered element positions in meters with a designated reference element."""

    positions: np.ndarray
    reference_index: int = 0

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 3 or positions.shape[0] < 1:
            raise ValueError("positions must be an (n, 3) array with n >= 1")
        if not np.all(np.isfinite(positions)):
            raise ValueError("positions must be finite")
        if not 0 <= self.reference_index < positions.shape[0]:
            raise ValueError(f"reference_index {self.reference_index} out of range")
        # a chunk of rows at a time against the elements after the chunk's
        # first, so the distances held stay O(n * chunk); the squared
        # distances are summed in np.linalg.norm's order, and sqrt is
        # monotone, so the root of their minimum is the least norm
        n = positions.shape[0]
        x, y, z = positions.T
        chunk = max(1, _PAIR_CHUNK // n)
        for start in range(0, n - 1, chunk):
            rows = slice(start, start + chunk)
            squared = np.subtract.outer(x[rows], x[start + 1:])
            squared *= squared
            for axis in (y, z):
                delta = np.subtract.outer(axis[rows], axis[start + 1:])
                delta *= delta
                squared += delta
            # below the diagonal, which runs through the chunk's own columns:
            # pairs with an element before the row's own
            own = squared[:, :len(squared)]
            own[np.tri(*own.shape, -1, dtype=bool)] = np.inf
            if math.sqrt(squared.min()) < _MIN_ELEMENT_SEPARATION:
                raise ValueError("two elements are closer than 1e-9 m")
        positions.setflags(write=False)
        object.__setattr__(self, "positions", positions)

    @property
    def n_elements(self) -> int:
        return self.positions.shape[0]


def linear_array(n: int, spacing: float, axis=(1.0, 0.0, 0.0)) -> ArrayGeometry:
    """Equispaced collinear elements along the given axis.

    The reference element sits at the origin; for odd n it is the middle
    element, so the array extends symmetrically to both sides.
    """
    if n < 1:
        raise ValueError(f"element count must be >= 1, got {n}")
    if not spacing > 0.0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    unit = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(unit))
    if not (np.all(np.isfinite(unit)) and norm > 0.0):
        raise ValueError("axis must be a nonzero finite vector")
    unit = unit / norm
    offset = (n - 1) // 2
    steps = (np.arange(n) - offset) * spacing
    return ArrayGeometry(positions=steps[:, None] * unit[None, :], reference_index=offset)


def circular_array(n: int, radius: float) -> ArrayGeometry:
    """Elements uniformly spaced around a horizontal circle through the origin.

    The reference element lies at the origin and elements are ordered by
    signed arc length from it, positive running counterclockwise (seen from
    above). The circle's center sits on the +y axis.
    """
    if n < 1:
        raise ValueError(f"element count must be >= 1, got {n}")
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    angles = 2.0 * math.pi * np.arange(n) / n
    angles = np.sort(np.mod(angles + math.pi, 2.0 * math.pi) - math.pi)
    positions = np.column_stack([
        radius * np.sin(angles),
        radius * (1.0 - np.cos(angles)),
        np.zeros(n),
    ])
    reference = int(np.argmin(np.abs(angles)))
    return ArrayGeometry(positions=positions, reference_index=reference)


def planar_grid(nx: int, ny: int, dx: float, dy: float) -> ArrayGeometry:
    """Horizontal rectangular grid with the reference element at the origin."""
    if nx < 1 or ny < 1:
        raise ValueError(f"grid counts must be >= 1, got {nx} x {ny}")
    if not (dx > 0.0 and dy > 0.0):
        raise ValueError(f"grid spacings must be positive, got {dx}, {dy}")
    ox, oy = (nx - 1) // 2, (ny - 1) // 2
    xs = (np.arange(nx) - ox) * dx
    ys = (np.arange(ny) - oy) * dy
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    positions = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(nx * ny)])
    return ArrayGeometry(positions=positions, reference_index=oy * nx + ox)


def correlation_matrix(geometry: ArrayGeometry, clusters, wavelength: float) -> np.ndarray:
    """Pairwise spatial correlation between array elements.

    Entry (i, k) correlates element i (conjugated) with element k, i.e. uses
    the displacement p_k - p_i; the result is Hermitian with a unit diagonal
    and positive semidefinite up to round-off.
    """
    _check_wavelength(wavelength)
    n = geometry.n_elements
    rows, cols = np.triu_indices(n, 1)
    positions = geometry.positions
    values = scf_multicluster(
        clusters, np.take(positions, cols, axis=0) - np.take(positions, rows, axis=0), wavelength
    )
    out = np.eye(n, dtype=complex)
    flat = out.reshape(-1)  # a view: fill both triangles through flat indices
    flat[rows * n + cols] = values
    flat[cols * n + rows] = np.conj(values)
    return out


def scf_along_path(geometry: ArrayGeometry, clusters, wavelength: float):
    """Correlation between the reference element and every element, tagged
    with its signed distance along the element chain.

    The path coordinate is the cumulative distance through the elements in
    order, zeroed at the reference element, so elements before it in the
    ordering carry negative values.
    """
    _check_wavelength(wavelength)
    positions = geometry.positions
    steps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    cumulative = np.concatenate([[0.0], np.cumsum(steps)])
    coords = cumulative - cumulative[geometry.reference_index]
    origin = positions[geometry.reference_index]
    values = scf_multicluster(clusters, positions - origin, wavelength)
    return [(float(s), v) for s, v in zip(coords, values.tolist())]


@dataclass(frozen=True)
class StationarityReport:
    """Whether |R| along a path is even in the path coordinate, plus the
    largest observed asymmetry between matched +/- distances."""

    is_even_in_magnitude: bool
    max_asymmetry: float


def stationarity_check(curve, tol: float = 1e-10) -> StationarityReport:
    """Compare |R| at matched positive and negative path distances.

    The curve is a list of (signed distance, correlation value) pairs as
    produced by scf_along_path; it must contain a matching negative distance
    for every positive one, otherwise a ValueError is raised.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    coords = np.array([float(s) for s, _ in curve])
    magnitudes = np.array([abs(v) for _, v in curve])
    atol = 1e-9 * (1.0 + float(np.max(np.abs(coords))) if coords.size else 1.0)
    pos = np.flatnonzero(coords > atol)
    neg = np.flatnonzero(coords < -atol)
    if pos.size != neg.size or pos.size == 0:
        raise ValueError("path distances lack matched +/- pairs")
    pos = pos[np.argsort(coords[pos])]
    neg = neg[np.argsort(-coords[neg])]
    if np.max(np.abs(coords[pos] + coords[neg])) > atol:
        raise ValueError("path distances lack matched +/- pairs")
    asymmetry = float(np.max(np.abs(magnitudes[pos] - magnitudes[neg])))
    return StationarityReport(is_even_in_magnitude=asymmetry < tol, max_asymmetry=asymmetry)
