"""Rectangle boundary geometry: segments, frame rotation, crossing detection."""
import numpy as np
import pytest

from crossrate import (
    BoundarySegment,
    GaussianDensity,
    HostRectangle,
    chord_crossings,
    segments,
    to_segment_frame,
)
from crossrate.geometry import SEGMENT_ORDER

RECT = HostRectangle(0.0, -5.0, -1.0, 1.0)


class TestHostRectangle:
    def test_defaults(self):
        r = HostRectangle()
        assert (r.x_front, r.x_rear, r.y_left, r.y_right) == (0.0, -5.0, -1.0, 1.0)
        assert r.width == 2.0
        assert r.length == 5.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            HostRectangle(x_front=0.0, x_rear=0.0)
        with pytest.raises(ValueError):
            HostRectangle(y_left=1.0, y_right=-1.0)

    def test_contains(self):
        assert RECT.contains((-2.0, 0.0))
        assert RECT.contains((0.0, 1.0))  # boundary counts as inside
        assert not RECT.contains((0.5, 0.0))


class TestSegments:
    def test_front_identification(self):
        front = segments(RECT)[0]
        assert front.name == "front"
        assert front.axis == "x" and front.coord == 0.0
        assert (front.t_lo, front.t_hi) == (-1.0, 1.0)
        assert front.normal == (-1.0, 0.0)

    def test_perimeter_coverage(self):
        total = sum(seg.t_hi - seg.t_lo for seg in segments(RECT))
        assert total == pytest.approx(2 * (RECT.width + RECT.length))

    def test_normals_point_inward(self):
        eps = 1e-6
        for seg in segments(RECT):
            mid = seg.point_at(0.5 * (seg.t_lo + seg.t_hi))
            inside = (mid[0] + eps * seg.normal[0], mid[1] + eps * seg.normal[1])
            assert RECT.contains(inside)

    def test_priority_order(self):
        assert [s.name for s in segments(RECT)] == ["front", "right", "left", "rear"]


class TestSegmentFrame:
    @staticmethod
    def density(mean):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((4, 4))
        return GaussianDensity(mean, a @ a.T + 0.5 * np.eye(4))

    def test_front_is_identity(self):
        g = self.density([2.0, 0.3, -1.5, 0.2])
        gf = to_segment_frame(g, segments(RECT)[0])
        np.testing.assert_allclose(gf.mean, g.mean, atol=1e-15)
        np.testing.assert_allclose(gf.cov, g.cov, atol=1e-15)

    def test_rotations_are_proper(self):
        for seg in segments(RECT):
            rot = seg.frame_rotation()
            np.testing.assert_allclose(rot @ rot.T, np.eye(2), atol=1e-15)
            assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_inward_motion_maps_to_negative_xdot(self):
        cases = {
            "front": [2.0, 0.0, -3.0, 0.0],
            "right": [-2.0, 3.0, 0.0, -3.0],
            "left": [-2.0, -3.0, 0.0, 3.0],
            "rear": [-7.0, 0.0, 3.0, 0.0],
        }
        for seg in segments(RECT):
            gf = to_segment_frame(self.density(cases[seg.name]), seg)
            assert gf.mean[2] < 0.0

    def test_boundary_maps_to_frame_offset(self):
        """A state on each segment midline lands at x' = boundary offset."""
        for seg in segments(RECT):
            mid = seg.point_at(0.5 * (seg.t_lo + seg.t_hi))
            g = self.density([mid[0], mid[1], 0.0, 0.0])
            gf = to_segment_frame(g, seg)
            assert gf.mean[0] == pytest.approx(seg.frame_boundary_offset())
            lo, hi = seg.frame_interval()
            assert lo < gf.mean[1] < hi

    def test_round_trip_recovers_density(self):
        g = self.density([1.0, 2.0, 3.0, 4.0])
        for seg in segments(RECT):
            rot = seg.frame_rotation()
            t = np.zeros((4, 4))
            t[:2, :2] = rot
            t[2:, 2:] = rot
            gf = to_segment_frame(g, seg)
            np.testing.assert_allclose(t.T @ gf.mean, g.mean, atol=1e-12)
            np.testing.assert_allclose(t.T @ gf.cov @ t, g.cov, atol=1e-12)

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            to_segment_frame(GaussianDensity([0.0], [[1.0]]), segments(RECT)[0])


def crossing_list(p0, p1):
    """chord_crossings of chords p0[i] -> p1[i] as (chord, side name, entry) tuples."""
    found = chord_crossings(p0, p1, RECT)
    names = [SEGMENT_ORDER[i] for i in found.segment]
    return list(zip(found.chord.tolist(), names, found.entry.tolist()))


class TestDetectCrossings:
    """Single chords and polylines through chord_crossings."""

    def test_head_on_front_entry(self):
        p0, p1 = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        found = chord_crossings([p0], [p1], RECT)
        assert crossing_list([p0], [p1]) == [(0, "front", True)]
        assert found.fraction[0] == pytest.approx(0.5)
        assert p0 + found.fraction[0] * (p1 - p0) == pytest.approx((0.0, 0.0))

    def test_chord_outside_is_empty(self):
        assert crossing_list([(2.0, 5.0)], [(3.0, 6.0)]) == []

    def test_degenerate_chord_is_empty(self):
        assert crossing_list([(0.5, 0.0)], [(0.5, 0.0)]) == []

    def test_enter_front_exit_right_ordering(self):
        found = chord_crossings([(0.5, 0.2)], [(-0.5, 1.4)], RECT)
        assert [SEGMENT_ORDER[i] for i in found.segment] == ["front", "right"]
        assert found.entry.tolist() == [True, False]
        assert found.fraction[0] < found.fraction[1]

    def test_corner_graze_cancels(self):
        # diagonal touch of the front/right corner never enters the interior
        assert crossing_list([(0.5, 0.5)], [(-0.5, 1.5)]) == []

    def test_reversal_swaps_entry_exit(self):
        p0, p1 = (1.0, 0.2), (-1.0, -0.4)
        assert [entry for _, _, entry in crossing_list([p0], [p1])] == [True]
        assert [entry for _, _, entry in crossing_list([p1], [p0])] == [False]

    def test_corner_hit_single_event_front_priority(self):
        assert crossing_list([(0.5, 1.5)], [(-0.5, 0.5)]) == [(0, "front", True)]

    def test_tangential_slide_closed_boundary(self):
        # motion exactly along the front face: the chord lies on the closed
        # rectangle between the corners, entering at left and exiting at
        # right, consistent with the point-in-rectangle parity invariant;
        # the front line itself is never crossed (no x-motion)
        assert crossing_list([(0.0, -2.0)], [(0.0, 2.0)]) == [
            (0, "left", True),
            (0, "right", False),
        ]

    def test_vertex_on_side_counted_once(self):
        # the chord ending on the front side does not count it, the chord
        # starting there does: one entry for the polyline
        pts = np.array([(1.0, 0.0), (0.0, 0.0), (-1.0, 0.0)])
        assert crossing_list(pts[:-1], pts[1:]) == [(1, "front", True)]

    def test_entry_exit_parity_random_polylines(self):
        """Cumulative entries - exits equals the point-in-rectangle flag.

        Half the polylines spread over the plane; the other half keep close
        to the sides and corners and pass exactly through corners, so a
        side span or the corner rule that is off shows.
        """
        rng = np.random.default_rng(42)
        for k in range(600):
            n_pts = int(rng.integers(3, 12))
            if k % 2:
                pts = near_boundary_polyline(rng, n_pts)
            else:
                pts = rng.uniform([-8, -4], [4, 4], size=(n_pts, 2))
            found = chord_crossings(pts[:-1], pts[1:], RECT)
            inside = 1 if RECT.contains(pts[0]) else 0
            for i, p1 in enumerate(pts[1:]):
                for entry in found.entry[found.chord == i]:
                    inside += 1 if entry else -1
                    assert inside in (0, 1)
                assert inside == (1 if RECT.contains(p1) else 0)

    def test_events_lie_on_their_segment(self):
        rng = np.random.default_rng(77)
        chords = rng.uniform([-8, -4], [4, 4], size=(200, 2, 2))  # the draws p0, p1 in turn
        p0, p1 = chords[:, 0], chords[:, 1]
        found = chord_crossings(p0, p1, RECT)
        s = found.fraction[:, np.newaxis]
        points = p0[found.chord] + s * (p1[found.chord] - p0[found.chord])
        sides = segments(RECT)
        for (x, y), si in zip(points.tolist(), found.segment):
            seg = sides[si]
            if seg.axis == "x":
                assert abs(x - seg.coord) < 1e-9
                assert seg.t_lo - 1e-9 <= y <= seg.t_hi + 1e-9
            else:
                assert abs(y - seg.coord) < 1e-9
                assert seg.t_lo - 1e-9 <= x <= seg.t_hi + 1e-9


_GRID = 2.0**-20  # polyline vertices are odd multiples of it, so never on a side line


def _on_grid(p):
    """Each coordinate of p moved by less than 2 * _GRID to an odd multiple of _GRID."""
    return (2.0 * np.floor(np.asarray(p) / (2 * _GRID)) + 1.0) * _GRID


def near_boundary_polyline(rng, n_pts):
    """A polyline close to RECT's sides and corners, with no vertex on a side line.

    A vertex lies within 1 m of a corner or of a point along a side.  About
    a third of the chords instead run from the previous vertex through its
    nearest corner to 1 or 3 times as far beyond it.  With coordinates on
    a binary grid those chords meet the corner exactly: a corner hit or a
    diagonal graze, depending on the side of the corner they come from.
    """
    sides = segments(RECT)
    corners = np.array(
        [(x, y) for x in (RECT.x_front, RECT.x_rear) for y in (RECT.y_left, RECT.y_right)]
    )
    pts = []
    for _ in range(n_pts):
        if pts and rng.random() < 1 / 3:
            c = corners[np.argmin(np.hypot(*(corners - pts[-1]).T))]
            pts.append(c - rng.choice([1.0, 3.0]) * (pts[-1] - c))  # exact: odd multiples stay odd
            continue
        if rng.random() < 0.5:
            anchor = corners[rng.integers(len(corners))]
        else:
            side = sides[rng.integers(len(sides))]
            anchor = np.array(side.point_at(rng.uniform(side.t_lo, side.t_hi)))
        pts.append(_on_grid(anchor + rng.uniform(-1.0, 1.0, 2)))
    return np.array(pts)


def reference_crossings(p0, p1, rect):
    """Loop form of the chord_crossings rules for one chord: (s, side, entry)."""
    d = (p1[0] - p0[0], p1[1] - p0[1])
    found = []
    for si, seg in enumerate(segments(rect)):
        a = 0 if seg.axis == "x" else 1
        if d[a] == 0.0:
            continue
        s = (seg.coord - p0[a]) / d[a]
        tangent = p0[1 - a] + s * d[1 - a]
        inward = d[0] * seg.normal[0] + d[1] * seg.normal[1]
        if 0.0 <= s < 1.0 and seg.t_lo <= tangent <= seg.t_hi and inward != 0.0:
            found.append((s, si, inward > 0.0))
    kept = []
    for ev in sorted(found):
        if kept and ev[0] - kept[-1][0] <= 1e-12:
            if ev[2] != kept[-1][2]:
                kept.pop()  # diagonal graze
            continue
        kept.append(ev)
    return kept


class TestChordCrossings:
    def test_corner_rule_stays_within_one_chord(self):
        # graze, corner hit, and two chords meeting the front at the same
        # fraction in opposite directions, checked in one call
        p0 = np.array([[0.5, 0.5], [0.5, 1.5], [1.0, 0.0], [-1.0, 0.5]])
        p1 = np.array([[-0.5, 1.5], [-0.5, 0.5], [-1.0, 0.0], [1.0, 0.5]])
        found = chord_crossings(p0, p1, RECT)
        assert found.chord.tolist() == [1, 2, 3]
        assert found.segment.tolist() == [0, 0, 0]
        assert found.entry.tolist() == [True, True, False]
        np.testing.assert_array_equal(found.fraction, [0.5, 0.5, 0.5])

    def test_matches_loop_reference_on_grid_chords(self):
        # endpoints on a 0.5 m grid: exact corner hits, grazes, vertices on
        # sides and slides along sides are all common
        rng = np.random.default_rng(5)
        p0 = rng.integers([-14, -6], [6, 6], size=(4000, 2)) * 0.5
        p1 = p0 + rng.integers(-4, 5, size=(4000, 2)) * 0.5
        found = chord_crossings(p0, p1, RECT)
        got = list(
            zip(
                found.chord.tolist(),
                found.fraction.tolist(),
                found.segment.tolist(),
                found.entry.tolist(),
            )
        )
        want = [
            (i, s, si, entry)
            for i in range(len(p0))
            for s, si, entry in reference_crossings(tuple(p0[i]), tuple(p1[i]), RECT)
        ]
        assert got == want
        assert len(want) > 500


class TestBoundarySegmentValidation:
    def test_bad_axis(self):
        with pytest.raises(ValueError):
            BoundarySegment("front", "z", 0.0, -1.0, 1.0, (-1.0, 0.0))

    def test_degenerate_interval(self):
        with pytest.raises(ValueError):
            BoundarySegment("front", "x", 0.0, 1.0, 1.0, (-1.0, 0.0))
