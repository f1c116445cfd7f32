"""Host-vehicle rectangle geometry and the one home of the crossing rules.

Four oriented boundary segments with inward normals, the rigid rotation
that maps any segment onto the front-boundary configuration, and the
crossing rules: chord_crossings checks arrays of chords against all four
sides at once (the Monte-Carlo oracle runs it on every step of every
trajectory), line_roots finds where constant-acceleration paths meet a
side's line, and first_path_entry keeps the earliest root that enters.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gaussian import GaussianDensity

SEGMENT_ORDER = ("front", "right", "left", "rear")

_CORNER_TOL = 1e-12


@dataclass(frozen=True)
class HostRectangle:
    """Axis-aligned host footprint; front boundary at x_front (Fig. 4 frame)."""

    x_front: float = 0.0
    x_rear: float = -5.0
    y_left: float = -1.0
    y_right: float = 1.0

    def __post_init__(self):
        if not self.x_rear < self.x_front:
            raise ValueError(f"x_rear ({self.x_rear}) must be < x_front ({self.x_front})")
        if not self.y_left < self.y_right:
            raise ValueError(f"y_left ({self.y_left}) must be < y_right ({self.y_right})")

    @property
    def width(self) -> float:
        return self.y_right - self.y_left

    @property
    def length(self) -> float:
        return self.x_front - self.x_rear

    def contains(self, point) -> bool:
        x, y = point
        return (
            self.x_rear <= x <= self.x_front and self.y_left <= y <= self.y_right
        )


@dataclass(frozen=True)
class BoundarySegment:
    """One straight side of the host rectangle.

    `axis` names the coordinate pinned by the anchor line ('x' or 'y'),
    `coord` its value; the tangent interval [t_lo, t_hi] runs along the
    other coordinate.  `normal` points into the rectangle.
    """

    name: str
    axis: str
    coord: float
    t_lo: float
    t_hi: float
    normal: tuple[float, float]

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {self.axis!r}")
        if not self.t_lo < self.t_hi:
            raise ValueError("tangent interval is degenerate")

    def point_at(self, tangent: float) -> tuple[float, float]:
        if self.axis == "x":
            return (self.coord, tangent)
        return (tangent, self.coord)

    def frame_rotation(self) -> np.ndarray:
        """Proper rotation whose first row is -normal (front frame x-axis)."""
        nx, ny = self.normal
        return np.array([[-nx, -ny], [ny, -nx]])

    def frame_boundary_offset(self) -> float:
        """Boundary coordinate x0 in the front frame (x' = -n . p)."""
        nx, ny = self.normal
        ax, ay = self.point_at(0.5 * (self.t_lo + self.t_hi))
        return -(nx * ax + ny * ay)

    def frame_interval(self) -> tuple[float, float]:
        """Image of the tangent interval under the frame rotation."""
        nx, ny = self.normal  # y' = ny x - nx y, the second row of frame_rotation()
        lo, hi = sorted(ny * x - nx * y for x, y in map(self.point_at, (self.t_lo, self.t_hi)))
        return lo, hi


def segments(rect: HostRectangle) -> tuple[BoundarySegment, ...]:
    """The four boundary segments in corner-tie-break priority order."""
    return (
        BoundarySegment(
            "front", "x", rect.x_front, rect.y_left, rect.y_right, (-1.0, 0.0)
        ),
        BoundarySegment(
            "right", "y", rect.y_right, rect.x_rear, rect.x_front, (0.0, -1.0)
        ),
        BoundarySegment(
            "left", "y", rect.y_left, rect.x_rear, rect.x_front, (0.0, 1.0)
        ),
        BoundarySegment(
            "rear", "x", rect.x_rear, rect.y_left, rect.y_right, (1.0, 0.0)
        ),
    )


def to_segment_frame(g: GaussianDensity, seg: BoundarySegment) -> GaussianDensity:
    """Rotate the (x, y, xdot, ydot) block of a density into the segment frame.

    The density is 4-dim (x, y, xdot, ydot) or the 6-dim state, whose first
    four coordinates are those; the result is their 4-dim marginal, rotated.
    In the segment frame the boundary sits at x' = frame_boundary_offset()
    with tangent interval frame_interval(), and inward motion has negative
    x'-velocity, exactly as for the front boundary.
    """
    if g.dim not in (4, 6):
        raise ValueError(f"expected a 4- or 6-dim (x, y, xdot, ydot, ...) density, got dim {g.dim}")
    rot = seg.frame_rotation()
    t = np.zeros((4, g.dim))
    t[:2, :2] = rot
    t[2:, 2:4] = rot
    return GaussianDensity(t @ g.mean, t @ g.cov @ t.T)  # t selects, signs and permutes: exact


class ChordCrossings(NamedTuple):
    """Crossings of a batch of chords, one array element per crossing."""

    chord: np.ndarray  # index of the chord in the input arrays
    fraction: np.ndarray  # position along the chord, in [0, 1)
    segment: np.ndarray  # index into SEGMENT_ORDER
    entry: np.ndarray  # True for an inward crossing, False for an outward one

    def select(self, index) -> ChordCrossings:
        return ChordCrossings(*(a[index] for a in self))


def chord_crossings(p0, p1, rect: HostRectangle) -> ChordCrossings:
    """Crossings of the chords p0[i] -> p1[i], (n, 2) arrays, with all sides.

    A chord crosses a side when the side's pinned coordinate is reached
    at a fraction s of the chord with 0 <= s < 1, the tangent coordinate
    lies in the side's closed span, and the chord is not parallel to the
    side; it is an entry when it moves along the side's inward normal.
    The interval is half-open so that a polyline vertex lying on a side
    is counted once, by the chord that starts there.

    Corner rule: two crossings of one chord within _CORNER_TOL of each
    other in s meet at a corner.  Both entries or both exits give one
    event, from the side first in SEGMENT_ORDER (front > right > left >
    rear); an entry with an exit is a diagonal graze that touches a
    single point without entering the interior, and gives none.

    Crossings are returned ordered by (chord, fraction, segment).
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    parts = []
    for si, seg in enumerate(segments(rect)):
        a = 0 if seg.axis == "x" else 1
        da = p1[:, a] - p0[:, a]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (seg.coord - p0[:, a]) / da
        chord = np.nonzero((da != 0.0) & (s >= 0.0) & (s < 1.0))[0]
        sv = s[chord]
        d = p1[chord] - p0[chord]
        tangent = p0[chord, 1 - a] + sv * d[:, 1 - a]
        inward = d[:, 0] * seg.normal[0] + d[:, 1] * seg.normal[1]
        keep = (tangent >= seg.t_lo) & (tangent <= seg.t_hi) & (inward != 0.0)
        side = np.full(np.count_nonzero(keep), si)
        parts.append((chord[keep], sv[keep], side, inward[keep] > 0.0))
    found = ChordCrossings(*(np.concatenate(arrays) for arrays in zip(*parts)))
    found = found.select(np.lexsort((found.segment, found.fraction, found.chord)))
    corner = (found.chord[1:] == found.chord[:-1]) & (
        found.fraction[1:] - found.fraction[:-1] <= _CORNER_TOL
    )
    drop = np.zeros(len(found.chord), dtype=bool)
    drop[1:] = corner
    drop[:-1] |= corner & (found.entry[1:] != found.entry[:-1])
    return found.select(~drop)


def box_meets_boundary(lo, hi, rect: HostRectangle) -> np.ndarray:
    """Whether the boxes [lo, hi] ((..., 2) arrays of x, y) meet the rectangle's sides.

    A box meets them when it meets the closed rectangle and does not lie
    in its open interior; a path that stays in a box that does not can
    cross no side.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    meets = (
        (lo[..., 0] <= rect.x_front) & (hi[..., 0] >= rect.x_rear)
        & (lo[..., 1] <= rect.y_right) & (hi[..., 1] >= rect.y_left)
    )
    inside = (
        (lo[..., 0] > rect.x_rear) & (hi[..., 0] < rect.x_front)
        & (lo[..., 1] > rect.y_left) & (hi[..., 1] < rect.y_right)
    )
    return meets & ~inside


def quadratic_roots(a, b, c) -> np.ndarray:
    """Real roots of a t^2 + b t + c = 0, elementwise, as (..., 2), NaN if none.

    |a| < 1e-15 is solved as linear, with its one root in the first column.
    """
    a, b, c = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, c)))
    out = np.full(a.shape + (2,), np.nan)
    lin = np.abs(a) < 1e-15
    solvable = lin & (b != 0.0)
    out[solvable, 0] = -c[solvable] / b[solvable]
    disc = b * b - 4.0 * a * c
    quad = ~lin & (disc >= 0.0)
    sq = np.sqrt(disc[quad])
    out[quad, 0] = (-b[quad] - sq) / (2.0 * a[quad])
    out[quad, 1] = (-b[quad] + sq) / (2.0 * a[quad])
    return out


def line_roots(states: np.ndarray, seg: BoundarySegment) -> np.ndarray:
    """Times (n, 2), NaN if none, at which the paths of states (n, 6) meet seg's line."""
    a = 0 if seg.axis == "x" else 1
    return quadratic_roots(
        0.5 * states[:, 4 + a], states[:, 2 + a], states[:, a] - seg.coord
    )


def first_path_entry(states: np.ndarray, seg: BoundarySegment, horizon: float) -> np.ndarray:
    """Earliest entry time in (0, horizon] through seg of each path, inf if none.

    Row j of `states` (n, 6) starts a constant-acceleration path.  A root
    is an entry under the rule of chord_crossings: in the side's closed
    span, velocity along the inward normal > 0, so a tangent touch is not.
    """
    t = line_roots(states, seg)
    t[~((t > 0.0) & (t <= horizon))] = np.nan  # roots in (0, horizon] only
    s = states[:, np.newaxis]  # (n, 1, 6): broadcasts against both roots
    tt = t[..., np.newaxis]
    pos = s[..., :2] + s[..., 2:4] * tt + 0.5 * s[..., 4:] * tt * tt
    along = pos[..., 1 if seg.axis == "x" else 0]
    inward = (s[..., 2:4] + s[..., 4:] * tt) @ seg.normal
    entry = (seg.t_lo <= along) & (along <= seg.t_hi) & (inward > 0.0)
    return np.where(entry, t, np.inf).min(axis=1)
