"""Rectangle boundary geometry: segments, frame rotation, crossing detection."""
import numpy as np
import pytest

from crossrate import (
    BoundarySegment,
    GaussianDensity,
    HostRectangle,
    chord_crossings,
    detect_crossings,
    segments,
    to_segment_frame,
)

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


class TestDetectCrossings:
    def test_head_on_front_entry(self):
        events = detect_crossings((1.0, 0.0), (-1.0, 0.0), RECT)
        assert len(events) == 1
        ev = events[0]
        assert ev.segment == "front" and ev.kind == "entry"
        assert ev.fraction == pytest.approx(0.5)
        assert ev.point == pytest.approx((0.0, 0.0))

    def test_chord_outside_is_empty(self):
        assert detect_crossings((2.0, 5.0), (3.0, 6.0), RECT) == []

    def test_degenerate_chord_is_empty(self):
        assert detect_crossings((0.5, 0.0), (0.5, 0.0), RECT) == []

    def test_enter_front_exit_right_ordering(self):
        events = detect_crossings((0.5, 0.2), (-0.5, 1.4), RECT)
        assert [ev.segment for ev in events] == ["front", "right"]
        assert [ev.kind for ev in events] == ["entry", "exit"]
        assert events[0].fraction < events[1].fraction

    def test_corner_graze_cancels(self):
        # diagonal touch of the front/right corner never enters the interior
        assert detect_crossings((0.5, 0.5), (-0.5, 1.5), RECT) == []

    def test_reversal_swaps_entry_exit(self):
        p0, p1 = (1.0, 0.2), (-1.0, -0.4)
        fwd = detect_crossings(p0, p1, RECT)
        rev = detect_crossings(p1, p0, RECT)
        assert [ev.kind for ev in fwd] == ["entry"]
        assert [ev.kind for ev in rev] == ["exit"]

    def test_corner_hit_single_event_front_priority(self):
        events = detect_crossings((0.5, 1.5), (-0.5, 0.5), RECT)
        assert len(events) == 1
        assert events[0].segment == "front"

    def test_tangential_slide_closed_boundary(self):
        # motion exactly along the front face: the chord lies on the closed
        # rectangle between the corners, entering at left and exiting at
        # right, consistent with the point-in-rectangle parity invariant
        events = detect_crossings((0.0, -2.0), (0.0, 2.0), RECT)
        assert [ev.segment for ev in events] == ["left", "right"]
        assert [ev.kind for ev in events] == ["entry", "exit"]
        # the front line itself is never crossed (no x-motion)
        assert all(ev.segment != "front" for ev in events)

    def test_vertex_on_side_counted_once(self):
        # the chord ending on the front side does not count it, the chord
        # starting there does: one entry for the polyline
        pts = [(1.0, 0.0), (0.0, 0.0), (-1.0, 0.0)]
        events = [
            ev for p0, p1 in zip(pts[:-1], pts[1:]) for ev in detect_crossings(p0, p1, RECT)
        ]
        assert [(ev.segment, ev.kind) for ev in events] == [("front", "entry")]

    def test_entry_exit_parity_random_polylines(self):
        """Cumulative entries - exits equals the point-in-rectangle flag."""
        rng = np.random.default_rng(42)
        for _ in range(300):
            n_pts = int(rng.integers(3, 12))
            pts = rng.uniform([-8, -4], [4, 4], size=(n_pts, 2))
            inside = 1 if RECT.contains(pts[0]) else 0
            for p0, p1 in zip(pts[:-1], pts[1:]):
                for ev in detect_crossings(p0, p1, RECT):
                    inside += 1 if ev.kind == "entry" else -1
                    assert inside in (0, 1)
                assert inside == (1 if RECT.contains(p1) else 0)

    def test_events_lie_on_their_segment(self):
        rng = np.random.default_rng(77)
        by_name = {seg.name: seg for seg in segments(RECT)}
        for _ in range(200):
            p0 = rng.uniform([-8, -4], [4, 4])
            p1 = rng.uniform([-8, -4], [4, 4])
            for ev in detect_crossings(p0, p1, RECT):
                seg = by_name[ev.segment]
                x, y = ev.point
                if seg.axis == "x":
                    assert abs(x - seg.coord) < 1e-9
                    assert seg.t_lo - 1e-9 <= y <= seg.t_hi + 1e-9
                else:
                    assert abs(y - seg.coord) < 1e-9
                    assert seg.t_lo - 1e-9 <= x <= seg.t_hi + 1e-9


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
