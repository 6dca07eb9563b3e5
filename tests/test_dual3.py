import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from incidencelab.exact import Vec2, Vec3
from incidencelab.generators import GenSpec, _rand_circle, _rand_dp, gen, rand_rat
from incidencelab.dual3 import (
    Line3,
    PowerPlane,
    _plane_through_pair,
    circle_dual,
    dp_dual_line,
    dual_incidence,
    dual_on_plane,
    encode_power,
    line_in_plane,
    rich_planes,
    rich_planes_to_json,
)
from incidencelab.tangency import Circle2, DirectedPoint, Line2, is_tangent, power, rotate_on_circle


def dp(px, py, u):
    return DirectedPoint(Vec2(px, py), u)


def circ(cx, cy, r2):
    return Circle2(Vec2(cx, cy), r2)


class TestCircleDual:
    def test_examples(self):
        assert circle_dual(circ(0, 0, 1)) == Vec3(0, 0, 1)
        assert circle_dual(circ(0, 5, 25)) == Vec3(0, 5, 0)
        assert circle_dual(circ(3, 4, 25)) == Vec3(3, 4, 0)


class TestDualLine:
    def test_eta_axis(self):
        line = dp_dual_line(dp(0, 0, 0))
        assert line.nonvertical_plane() == PowerPlane(0, 0, 0)
        assert line.vertical_trace() == Line2(1, 0, 0)
        l3 = line.as_line3()
        assert l3.point == Vec3(0, 0, 0)
        assert l3.direction == Vec3(0, 1, 0)

    def test_shifted_line(self):
        line = dp_dual_line(dp(1, 0, 0))
        assert line.nonvertical_plane() == PowerPlane(2, 0, -1)
        assert line.vertical_trace() == Line2(1, 0, -1)
        assert line.as_line3().contains(Vec3(1, 7, -1))
        assert not line.as_line3().contains(Vec3(1, 7, 0))

    def test_distinct_points_distinct_lines(self):
        rng = random.Random(21)
        for _ in range(2000):
            a = _rand_dp(rng, 10, 10)
            b = _rand_dp(rng, 10, 10)
            if a == b:
                continue
            la, lb = dp_dual_line(a).as_line3(), dp_dual_line(b).as_line3()
            assert la != lb


class TestDualIncidence:
    def test_examples(self):
        assert dual_incidence(dp(0, 0, 0), circ(0, 5, 25))
        assert dual_incidence(dp(0, 1, 0), circ(0, 0, 1))
        assert not dual_incidence(dp(0, 1, 1), circ(0, 0, 1))

    def test_master_equivalence_sample(self):
        rng = random.Random(22)
        for _ in range(2000):
            a = _rand_dp(rng, 10, 10)
            c, _ = _rand_circle(rng, 10, 10)
            assert dual_incidence(a, c) == is_tangent(a, c)


class TestPowerPlane:
    def test_decode_examples(self):
        pp = PowerPlane(0, 0, 0)
        assert pp.w == Vec2(0, 0) and pp.rho == 0
        assert dual_on_plane(circ(0, 5, 25), pp)

        pp1 = PowerPlane(0, 0, 1)
        assert pp1.w == Vec2(0, 0) and pp1.rho == 1
        assert power(Vec2(0, 0), circ(2, 0, 3)) == 1
        assert dual_on_plane(circ(2, 0, 3), pp1)

        assert not dual_on_plane(circ(0, 0, 1), PowerPlane(0, 0, 0))

    def test_power_equivalence_random(self):
        rng = random.Random(23)
        for _ in range(2000):
            c, _ = _rand_circle(rng, 10, 10)
            pp = PowerPlane(rand_rat(rng, 10, 10), rand_rat(rng, 10, 10), rand_rat(rng, 10, 10))
            assert dual_on_plane(c, pp) == (power(pp.w, c) == pp.rho)

    def test_encode_round_trip(self):
        rng = random.Random(24)
        for _ in range(500):
            a, b, d = rand_rat(rng, 10, 10), rand_rat(rng, 10, 10), rand_rat(rng, 10, 10)
            pp = PowerPlane(a, b, d)
            again = encode_power(pp.w, pp.rho)
            assert again == pp


class TestLineInPlane:
    def test_examples(self):
        zminus1 = PowerPlane(0, 0, 1)  # zeta = -1: w=(0,0), rho=1
        assert line_in_plane(dp(1, 0, 0), zminus1)
        assert not line_in_plane(dp(1, 0, 1), zminus1)
        assert not line_in_plane(dp(2, 0, 0), zminus1)

    def test_geometric_characterization(self):
        rng = random.Random(25)
        for _ in range(2000):
            a = _rand_dp(rng, 10, 10)
            pp = PowerPlane(rand_rat(rng, 10, 10), rand_rat(rng, 10, 10), rand_rat(rng, 10, 10))
            if pp.rho <= 0:
                continue
            w = pp.w
            geometric = (a.p - w).norm2() == pp.rho and (
                (w.y - a.p.y) == a.u * (w.x - a.p.x)
            )
            assert line_in_plane(a, pp) == geometric

    def test_direct_containment_of_line_points(self):
        rng = random.Random(26)
        hits = 0
        for _ in range(500):
            a = _rand_dp(rng, 10, 10)
            pp = encode_power(a.p + Vec2(1, a.u), (Vec2(1, a.u)).norm2())
            # w = p + (1, u): on the tangent-perpendicular? (w-p) = (1,u) is
            # parallel to (1,u): contained
            if not line_in_plane(a, pp):
                continue
            hits += 1
            line = dp_dual_line(a)
            p0 = line.point0()
            dv = line.direction()
            for k in (-3, 0, 2):
                pt = p0 + dv.scale(k)
                assert pp.eval_at(pt) == 0
        assert hits == 500


class TestRichPlanes:
    def test_power_circle_pencil(self):
        # five directed points on the unit power circle with radial directions
        pts = []
        for x, y in ((Fraction(3, 5), Fraction(4, 5)),
                     (Fraction(-3, 5), Fraction(4, 5)),
                     (Fraction(5, 13), Fraction(12, 13)),
                     (Fraction(-5, 13), Fraction(12, 13)),
                     (Fraction(1), Fraction(0))):
            p = Vec2(x, y)
            if p.x == 0:
                continue
            pts.append(DirectedPoint(p, p.y / p.x))
        report = rich_planes(pts, 2)
        assert len(report) >= 1
        top_plane, members = report[0]
        assert isinstance(top_plane, PowerPlane)
        assert top_plane == PowerPlane(0, 0, 1)  # zeta = -1
        assert members == list(range(5))
        # every reported plane re-verified by direct containment
        for plane, ms in report:
            if isinstance(plane, PowerPlane):
                for i in ms:
                    assert line_in_plane(pts[i], plane)

    def test_generic_points_no_rich_planes(self):
        rng = random.Random(27)
        pts = [_rand_dp(rng, 10, 10) for _ in range(12)]
        assert rich_planes(pts, 3) == []

    def test_two_line_span_reported(self):
        # two directed points on a common power circle with matching radial
        # directions span their plane at q=2
        p1 = Vec2(Fraction(3, 5), Fraction(4, 5))
        p2 = Vec2(Fraction(-3, 5), Fraction(4, 5))
        pts = [DirectedPoint(p1, p1.y / p1.x), DirectedPoint(p2, p2.y / p2.x)]
        report = rich_planes(pts, 2)
        planes = [pl for pl, _ in report if isinstance(pl, PowerPlane)]
        assert PowerPlane(0, 0, 1) in planes

    def test_vertical_plane_grouping(self):
        # directed points sharing a tangent-perpendicular trace share their
        # unique vertical plane
        pts = [dp(0, 0, 0), dp(0, 2, 0), dp(0, -5, 0)]
        report = rich_planes(pts, 3)
        vertical = [pl for pl, ms in report if isinstance(pl, Line2) and len(ms) == 3]
        assert vertical == [Line2(1, 0, 0)]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            rich_planes([], 1)

    def test_json_shape(self):
        pts = [dp(0, 0, 0), dp(0, 2, 0)]
        out = rich_planes_to_json(rich_planes(pts, 2))
        for entry in out:
            assert set(entry) == {"plane", "members", "count"}



def span_plane_3d(a, b):
    """Reference: the non-vertical plane through the dual lines of a and b,
    from 3-space geometry (normal = cross product of the directions)."""
    la, lb = dp_dual_line(a), dp_dual_line(b)
    pa, da, gap = la.point0(), la.direction(), lb.point0() - la.point0()
    normal = da.cross(lb.direction())
    if normal.is_zero():  # parallel: the gap gives the second direction
        normal = da.cross(gap)
        if normal.is_zero():
            return None  # the same line
    elif gap.dot(normal) != 0:
        return None  # skew
    if normal.z == 0:
        return None  # vertical plane
    return PowerPlane(normal.x / normal.z, normal.y / normal.z, -normal.dot(pa) / normal.z)


def rich_planes_by_rescan(dps, q):
    """Reference with membership by rescanning every line for every plane."""
    found = {}
    for i, a in enumerate(dps):
        found.setdefault(dp_dual_line(a).vertical_trace(), set()).add(i)
    for i, j in combinations(range(len(dps)), 2):
        plane = span_plane_3d(dps[i], dps[j])
        if plane is not None and plane not in found:
            found[plane] = {k for k, c in enumerate(dps) if line_in_plane(c, plane)}

    def key(entry):
        plane, members = entry
        if isinstance(plane, PowerPlane):
            return (-len(members), 0, plane.a, plane.b, plane.d)
        return (-len(members), 1, plane.a, plane.b, plane.c)

    return sorted(((pl, sorted(ms)) for pl, ms in found.items() if len(ms) >= q), key=key)


def small_instance(rng):
    """Small-integer directed points with duplicates, repeated slopes, shared
    vertical traces and radial points on the power circle |w - p|^2 = 25."""
    pts = []
    for _ in range(rng.randint(8, 16)):
        roll = rng.random()
        if pts and roll < 0.15:
            pts.append(rng.choice(pts))
        elif pts and roll < 0.3:  # same trace: p + t(-u, 1)
            base, t = rng.choice(pts), rng.randint(-2, 2)
            pts.append(DirectedPoint(base.p + Vec2(-base.u * t, t), base.u))
        elif roll < 0.5:
            x, y = rng.choice([(3, 4), (-3, 4), (4, 3), (-4, -3), (5, 0), (-5, 0), (3, -4)])
            pts.append(dp(x + 1, y - 1, Fraction(y, x)))
        else:
            pts.append(dp(rng.randint(-2, 2), rng.randint(-2, 2), rng.choice([0, 1, -1, 2, Fraction(1, 2)])))
    return pts


class TestSpanningPairs:
    def test_matches_rescan_reference(self):
        rng = random.Random(31)
        nonvertical_rich = vertical_rich = 0
        for _ in range(40):
            pts = small_instance(rng)
            report = rich_planes(pts, 2)
            assert report == rich_planes_by_rescan(pts, 2)
            nonvertical_rich += sum(isinstance(pl, PowerPlane) and len(ms) >= 3 for pl, ms in report)
            vertical_rich += sum(isinstance(pl, Line2) and len(ms) >= 3 for pl, ms in report)
        assert nonvertical_rich > 0 and vertical_rich > 0

    def test_different_slopes(self):
        a = dp(Fraction(3, 5), Fraction(4, 5), Fraction(4, 3))
        b = dp(Fraction(-3, 5), Fraction(4, 5), Fraction(-4, 3))
        assert _plane_through_pair(a, b) == PowerPlane(0, 0, 1)

    def test_equal_slopes_parallel_lines(self):
        # (0,0) and (1,0) both horizontal: parallel dual lines on w = (1/2, 0), rho = 1/4
        pp = _plane_through_pair(dp(0, 0, 0), dp(1, 0, 0))
        assert pp == PowerPlane(1, 0, 0)
        assert pp.w == Vec2(Fraction(1, 2), 0) and pp.rho == Fraction(1, 4)

    @pytest.mark.parametrize("a, b", [
        (dp(0, 0, 0), dp(1, 1, 0)),  # equal slopes, c differs: skew over parallel traces
        (dp(0, 0, 0), dp(0, 2, 0)),  # equal slopes, one vertical plane (k = 0)
        (dp(1, 2, 3), dp(1, 2, 3)),  # equal points: c equal and k = 0
        (dp(0, 0, 0), dp(1, 0, 1)),  # different slopes, skew: the re-check fails
    ], ids=["skew-parallel-traces", "shared-vertical-plane", "equal-points", "recheck-fails"])
    def test_no_nonvertical_plane(self, a, b):
        assert _plane_through_pair(a, b) is None
        assert span_plane_3d(a, b) is None

    def test_agrees_with_3d_reference(self):
        rng = random.Random(32)
        for _ in range(3000):
            a = dp(rng.randint(-3, 3), rng.randint(-3, 3), rng.choice([0, 1, -1, 2, Fraction(1, 2)]))
            b = dp(rng.randint(-3, 3), rng.randint(-3, 3), rng.choice([0, 1, -1, 2, Fraction(1, 2)]))
            assert _plane_through_pair(a, b) == span_plane_3d(a, b)

    def test_planted_pairs_contained(self):
        # radial directed points on a power circle around w span encode_power(w, rho)
        rng = random.Random(33)
        for i in range(300):
            w = Vec2(rand_rat(rng, 10, 10), rand_rat(rng, 10, 10))
            p = Vec2(rand_rat(rng, 10, 10), rand_rat(rng, 10, 10))
            if p.x == w.x:
                continue
            circle = Circle2(w, (p - w).norm2())
            if i % 2:  # the antipode: equal slopes, parallel dual lines
                q = w.scale(2) - p
            else:
                q = rotate_on_circle(circle, p, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                if q.x == w.x or q == p:
                    continue
            a = DirectedPoint(p, (p.y - w.y) / (p.x - w.x))
            b = DirectedPoint(q, (q.y - w.y) / (q.x - w.x))
            pp = _plane_through_pair(a, b)
            assert pp == encode_power(w, circle.r2)
            for c in (a, b):
                line = dp_dual_line(c)
                for k in (-2, 0, 3):
                    pt = line.point0() + line.direction().scale(k)
                    assert pp.eval_at(pt) == 0


# Numerators up to 2^200 over denominators up to 2^64; the second branch
# keeps both near the top, which the first one rarely draws.
HUGE = (st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 64))
        | st.builds(lambda sign, n, d: Fraction(sign * n, d), st.sampled_from((1, -1)),
                    st.integers(2 ** 199, 2 ** 200), st.integers(2 ** 63, 2 ** 64)))


@st.composite
def huge_pairs(draw):
    """Two directed points and the plane they must span ("any" when free).
    Half have equal slopes.  Radial pairs lie on a power circle around w:
    an antipodal pair has parallel dual lines, a rotated pair crossing ones.
    Free pairs draw the second point, and its slope unless it is equal."""
    p, w = Vec2(draw(HUGE), draw(HUGE)), Vec2(draw(HUGE), draw(HUGE))
    if p.x == w.x:
        w = w + Vec2(1, 0)
    equal_slopes, radial = draw(st.booleans()), draw(st.booleans())
    if radial:
        circle = Circle2(w, (p - w).norm2())
        if equal_slopes:
            q = w.scale(2) - p
        else:
            q = rotate_on_circle(circle, p, draw(st.fractions(-9, 9, max_denominator=9).filter(bool)))
        assume(q.x != w.x)
        a, b = DirectedPoint(p, (p.y - w.y) / (p.x - w.x)), DirectedPoint(q, (q.y - w.y) / (q.x - w.x))
        return a, b, encode_power(w, circle.r2)
    a = DirectedPoint(p, draw(HUGE))
    return a, DirectedPoint(Vec2(draw(HUGE), draw(HUGE)), a.u if equal_slopes else draw(HUGE)), "any"


@settings(max_examples=200, deadline=None, derandomize=True, database=None, phases=(Phase.generate,))
@given(huge_pairs())
def test_pair_plane_matches_3d_reference_at_huge_magnitude(pair):
    a, b, planted = pair
    plane = _plane_through_pair(a, b)
    assert plane == span_plane_3d(a, b)
    if planted != "any":  # a radial pair spans its power circle's plane
        assert plane == planted


POWER_CENTERS = (Vec2(1, -1), Vec2(Fraction(-7, 3), Fraction(5, 2)))


def planted_radial_instance():
    """Tangent points of circle-sampled 30x4 (seed 5), radial points on two
    power circles (rotations and an antipode) and one duplicate, shuffled."""
    inst, _ = gen(GenSpec("circle-sampled", 30, 4, seed=5))
    dps = list(inst.points)
    for w, base in zip(POWER_CENTERS, (Vec2(4, 3), Vec2(Fraction(1, 3), 4))):
        circle = Circle2(w, (base - w).norm2())
        ring = [rotate_on_circle(circle, base, Fraction(t, 3)) for t in range(8)] + [w.scale(2) - base]
        dps.extend(DirectedPoint(p, (p.y - w.y) / (p.x - w.x)) for p in ring if p.x != w.x)
    dps.append(dps[0])
    random.Random(42).shuffle(dps)
    return dps


def test_rich_planes_golden():
    report = rich_planes(planted_radial_instance(), 3)
    # the two power circles' planes lead the report
    assert [(pl, len(ms)) for pl, ms in report[:2]] == [
        (encode_power(POWER_CENTERS[1], Fraction(337, 36)), 9), (encode_power(POWER_CENTERS[0], 25), 8)]
    payload = json.dumps(rich_planes_to_json(report), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "6be97db3b02049a01b87ff4051619155f3bc24a6cd3804671f40eb5fdba13985")


def test_line3_canonicalization():
    l1 = Line3(Vec3(1, 1, 0), Vec3(0, 2, 0))
    l2 = Line3(Vec3(1, 5, 0), Vec3(0, -1, 0))
    assert l1 == l2
    assert l1.contains(Vec3(1, -7, 0))


def line3_oracle(point: Vec3, direction: Vec3):
    """Line3's canonical form by Fraction arithmetic alone: the direction
    scaled to coprime integers with its first nonzero entry positive, and the
    foot P - v (P.v) / |v|^2 of the perpendicular from the origin."""
    coords = (direction.x, direction.y, direction.z)
    den = 1
    for c in coords:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in coords]
    g = math.gcd(*ints)
    first = next(c for c in ints if c != 0)
    v = Vec3(*(Fraction(c, g if first > 0 else -g) for c in ints))
    t = point.dot(v) / v.norm2()
    return point - v.scale(t), v


# Direction components are often zero, so the sign rule meets every position.
HUGE_OR_ZERO = st.just(Fraction(0)) | HUGE


@settings(max_examples=300, deadline=None, derandomize=True, database=None, phases=(Phase.generate,))
@given(st.lists(HUGE, min_size=3, max_size=3), st.lists(HUGE_OR_ZERO, min_size=3, max_size=3))
def test_line3_matches_fraction_oracle_at_huge_magnitude(point, direction):
    point, direction = Vec3(*point), Vec3(*direction)
    if direction.is_zero():
        with pytest.raises(ValueError):
            Line3(point, direction)
        return
    line = Line3(point, direction)
    assert (line.point, line.direction) == line3_oracle(point, direction)
    assert Line3.from_json(line.to_json()) == line
