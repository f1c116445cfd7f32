"""Host-vehicle rectangle geometry.

Four oriented boundary segments with inward normals, the rigid rotation
that maps any segment onto the front-boundary configuration, and the one
crossing detector, chord_crossings: it checks arrays of chords against
all four sides at once, the Monte-Carlo oracle runs it on every step of
every trajectory, and detect_crossings is its one-chord view.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gaussian import GaussianDensity, symmetrize

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
        rot = self.frame_rotation()
        a = rot @ np.asarray(self.point_at(self.t_lo))
        b = rot @ np.asarray(self.point_at(self.t_hi))
        lo, hi = sorted((a[1], b[1]))
        return lo, hi


@dataclass(frozen=True)
class CrossingEvent:
    """One boundary crossing, timestamped by the caller."""

    time: float
    segment: str
    point: tuple[float, float]
    kind: str  # 'entry' or 'exit'


@dataclass(frozen=True)
class ChordCrossing:
    """Crossing of a single chord, located by fraction along the chord."""

    fraction: float
    segment: str
    point: tuple[float, float]
    kind: str


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
    """Rotate a 4-dim (x, y, xdot, ydot) density into the segment frame.

    In the segment frame the boundary sits at x' = frame_boundary_offset()
    with tangent interval frame_interval(), and inward motion has
    negative x'-velocity, exactly as for the front boundary.
    """
    if g.dim != 4:
        raise ValueError(f"expected a 4-dim (x, y, xdot, ydot) density, got {g.dim}")
    rot = seg.frame_rotation()
    t = np.zeros((4, 4))
    t[:2, :2] = rot
    t[2:, 2:] = rot
    return GaussianDensity(t @ g.mean, symmetrize(t @ g.cov @ t.T))


class ChordCrossings(NamedTuple):
    """Crossings of a batch of chords, one array element per crossing."""

    chord: np.ndarray  # index of the chord in the input arrays
    fraction: np.ndarray  # position along the chord, in [0, 1)
    segment: np.ndarray  # index into SEGMENT_ORDER
    entry: np.ndarray  # True for an inward crossing, False for an outward one
    tangent: np.ndarray  # crossing coordinate along the segment

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
        parts.append((chord[keep], sv[keep], side, inward[keep] > 0.0, tangent[keep]))
    found = ChordCrossings(*(np.concatenate(arrays) for arrays in zip(*parts)))
    found = found.select(np.lexsort((found.segment, found.fraction, found.chord)))
    corner = (found.chord[1:] == found.chord[:-1]) & (
        found.fraction[1:] - found.fraction[:-1] <= _CORNER_TOL
    )
    drop = np.zeros(len(found.chord), dtype=bool)
    drop[1:] = corner
    drop[:-1] |= corner & (found.entry[1:] != found.entry[:-1])
    return found.select(~drop)


def detect_crossings(p0, p1, rect: HostRectangle) -> list[ChordCrossing]:
    """Crossings of the single chord p0 -> p1, ordered along it.

    A one-chord view of chord_crossings, which states the rules.
    """
    found = chord_crossings(np.reshape(p0, (1, 2)), np.reshape(p1, (1, 2)), rect)
    sides = segments(rect)
    return [
        ChordCrossing(
            float(s), sides[i].name, sides[i].point_at(float(t)), "entry" if e else "exit"
        )
        for s, i, e, t in zip(found.fraction, found.segment, found.entry, found.tangent)
    ]
