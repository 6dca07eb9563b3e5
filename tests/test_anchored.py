import random
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from incidencelab.exact import Vec2, Vec3
from incidencelab.generators import _rand_circle, _rand_dp, rand_rat
from incidencelab.anchored import (
    AnchoredCircle,
    LiftedCircle,
    _rotate,
    anchored_incident,
    anchored_pair_intersections,
    anchored_point,
    anchored_point_sample,
    anchored_through_pair,
    center_circle_point,
    circle_from_params,
    cubic_surface,
    dual_params,
    h_p_sample,
    lift_sample,
    lifted_contains,
    lifted_param,
    sphere_point,
    tangent_basis,
)
from incidencelab.polynomials import restrict_to_curve
from incidencelab.tangency import Circle2, DirectedPoint, is_tangent, tangent_circle


def rand_anchored(rng):
    while True:
        c = sphere_point(rand_rat(rng, 3, 8), rand_rat(rng, 3, 8))
        e1, e2 = tangent_basis(c)
        n = e1.scale(rand_rat(rng, 5, 6)) + e2.scale(rand_rat(rng, 5, 6))
        if not n.is_zero():
            return AnchoredCircle(c, n)


UNIT_X_CIRCLE = AnchoredCircle(Vec3(1, 0, 0), Vec3(0, 0, 1))


class TestIncidence:
    def test_antipode(self):
        assert anchored_incident(Vec3(2, 0, 0), UNIT_X_CIRCLE)

    def test_origin_always(self):
        rng = random.Random(1)
        for _ in range(50):
            assert anchored_incident(Vec3(0, 0, 0), rand_anchored(rng))

    def test_off_plane(self):
        assert not anchored_incident(Vec3(1, 1, 1), UNIT_X_CIRCLE)


class TestThroughPair:
    def test_known_pair(self):
        g = anchored_through_pair(Vec3(2, 0, 0), Vec3(1, 1, 0))
        assert g is not None
        assert g.c == Vec3(1, 0, 0)
        assert g.n == Vec3(0, 0, 1)

    def test_too_far_apart(self):
        assert anchored_through_pair(Vec3(2, 0, 0), Vec3(0, 0, 3)) is None

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError, match="degenerate triple"):
            anchored_through_pair(Vec3(1, 0, 0), Vec3(1, 0, 0))
        with pytest.raises(ValueError, match="degenerate triple"):
            anchored_through_pair(Vec3(1, 0, 0), Vec3(2, 0, 0))
        with pytest.raises(ValueError, match="degenerate triple"):
            anchored_through_pair(Vec3(0, 0, 0), Vec3(1, 1, 0))

    def test_recovers_circle_from_its_points(self):
        rng = random.Random(2)
        for _ in range(100):
            g = rand_anchored(rng)
            p = anchored_point_sample(g, rng)
            q = anchored_point_sample(g, rng)
            if p == q or p.cross(q).is_zero():
                continue
            got = anchored_through_pair(p, q)
            assert got == g

    def test_random_pairs_at_most_one_and_verified(self):
        rng = random.Random(3)
        for _ in range(300):
            p = Vec3(rand_rat(rng, 2, 6), rand_rat(rng, 2, 6), rand_rat(rng, 2, 6))
            q = Vec3(rand_rat(rng, 2, 6), rand_rat(rng, 2, 6), rand_rat(rng, 2, 6))
            try:
                got = anchored_through_pair(p, q)
            except ValueError:
                continue
            if got is not None:
                assert anchored_incident(p, got) and anchored_incident(q, got)


# Numerators up to 2^200 over denominators up to 2^64; the second branch
# keeps both near the top, which the first one rarely draws.
HUGE = (st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 64))
        | st.builds(lambda sign, n, d: Fraction(sign * n, d), st.sampled_from((1, -1)),
                    st.integers(2 ** 199, 2 ** 200), st.integers(2 ** 63, 2 ** 64)))
THROUGH_PAIR = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                        phases=(Phase.generate,))


@THROUGH_PAIR
@given(HUGE, HUGE, HUGE, HUGE, HUGE.filter(bool), HUGE.filter(bool))
def test_through_pair_recovers_planted_circle_at_huge_magnitude(a, b, s, t, t1, t2):
    assume((s, t) != (0, 0) and t1 != t2)
    c = sphere_point(a, b)
    e1, e2 = tangent_basis(c)
    g = AnchoredCircle(c, e1.scale(s) + e2.scale(t))
    assert anchored_through_pair(anchored_point(g, t1), anchored_point(g, t2)) == g


@THROUGH_PAIR
@given(st.lists(HUGE | st.fractions(-2, 2, max_denominator=6), min_size=6, max_size=6))
def test_through_pair_exists_iff_circumradius_is_one(coords):
    p, q = Vec3(*coords[:3]), Vec3(*coords[3:])
    n = p.cross(q)
    assume(not n.is_zero())
    got = anchored_through_pair(p, q)
    # circumradius |p| |q| |p - q| / (2 |p x q|) of the triangle o, p, q
    assert (got is not None) == (p.norm2() * q.norm2() * (p - q).norm2() == 4 * n.norm2())
    if got is not None:
        assert anchored_incident(p, got) and anchored_incident(q, got)


class TestDualParams:
    def test_known_chart(self):
        params = dual_params(UNIT_X_CIRCLE)
        assert params.alpha == 1 and params.beta == 0
        assert not params.south_chart

    def test_round_trip_random(self):
        rng = random.Random(4)
        for _ in range(300):
            g = rand_anchored(rng)
            assert circle_from_params(dual_params(g)) == g

    def test_north_pole_uses_south_chart(self):
        g = AnchoredCircle(Vec3(0, 0, 1), Vec3(1, 0, 0))
        params = dual_params(g)
        assert params.south_chart
        assert circle_from_params(params) == g


class TestHp:
    def test_contains_matches_incidence(self):
        rng = random.Random(5)
        for _ in range(100):
            g = rand_anchored(rng)
            p = anchored_point_sample(g, rng)
            assert anchored_incident(p, g)

    def test_center_constraint_examples(self):
        p = Vec3(1, 1, 0)
        for c in (Vec3(1, 0, 0), Vec3(0, 1, 0)):
            assert c.norm2() == 1
            assert 2 * c.dot(p) == p.norm2()
            g = AnchoredCircle(c, p.cross(c))
            assert anchored_incident(p, g)

    def test_boundary_midpoint(self):
        p = Vec3(2, 0, 0)
        rng = random.Random(6)
        for g in h_p_sample(p, 20, rng):
            assert g.c == Vec3(1, 0, 0)
            assert anchored_incident(p, g)

    def test_too_far_empty(self):
        assert h_p_sample(Vec3(3, 0, 0), 5, random.Random(7)) == []

    def test_origin_rejected(self):
        with pytest.raises(ValueError, match="anchor point excluded"):
            h_p_sample(Vec3(0, 0, 0), 1, random.Random(8))

    def test_samples_with_witness(self):
        rng = random.Random(9)
        for _ in range(50):
            g0 = rand_anchored(rng)
            p = anchored_point_sample(g0, rng)
            if p.norm2() >= 4:
                continue
            for g in h_p_sample(p, 5, rng, base_center=g0.c):
                assert anchored_incident(p, g)

    def test_center_circle_point_stays_valid(self):
        rng = random.Random(10)
        g0 = rand_anchored(rng)
        p = anchored_point_sample(g0, rng)
        for _ in range(50):
            c = center_circle_point(p, g0.c, rand_rat(rng, 10, 10))
            assert c.norm2() == 1
            assert 2 * c.dot(p) == p.norm2()


class TestPairIntersections:
    def test_at_most_two_one_origin(self):
        rng = random.Random(11)
        for _ in range(300):
            g1, g2 = rand_anchored(rng), rand_anchored(rng)
            if g1 == g2:
                continue
            pts = anchored_pair_intersections(g1, g2)
            assert 1 <= len(pts) <= 2
            assert pts[0] == Vec3(0, 0, 0)
            for x in pts:
                assert anchored_incident(x, g1) and anchored_incident(x, g2)

    def test_circles_through_common_point_share_it(self):
        rng = random.Random(12)
        hits = 0
        for _ in range(100):
            g1 = rand_anchored(rng)
            p = anchored_point_sample(g1, rng)
            if p.norm2() >= 4:
                continue
            g2 = h_p_sample(p, 1, rng, base_center=g1.c)[0]
            if g1 == g2:
                continue
            pts = anchored_pair_intersections(g1, g2)
            assert any(x == p for x in pts)
            hits += 1
        assert hits > 50


class TestLift:
    def test_contains_trivial(self):
        lc = LiftedCircle(Circle2(Vec2(0, 0), 1))
        assert lifted_contains(lc, Vec3(0, 1, 0))
        for z in (0, 1, Fraction(-17, 3)):
            assert not lifted_contains(lc, Vec3(1, 0, z))

    def test_contains_derived(self):
        lc = LiftedCircle(Circle2(Vec2(0, 5), 25))
        assert lifted_contains(lc, Vec3(3, 1, Fraction(3, 4)))

    def test_equivalence_with_is_tangent(self):
        rng = random.Random(13)
        for _ in range(300):
            c, _ = _rand_circle(rng, 10, 10)
            a = _rand_dp(rng, 10, 10)
            assert is_tangent(a, c) == lifted_contains(LiftedCircle(c), Vec3(a.p.x, a.p.y, a.u))

    def test_param_points_on_lift(self):
        rng = random.Random(14)
        for _ in range(60):
            c, p = _rand_circle(rng, 10, 10)
            lc = LiftedCircle(c)
            curve = lifted_param(lc, p)
            for _ in range(10):
                s = rand_rat(rng, 10, 10)
                if curve.denominators_vanish_at(s):
                    continue
                assert lifted_contains(lc, curve.point_at(s))

    def test_param_matches_spec_example(self):
        lc = LiftedCircle(Circle2(Vec2(0, 0), 1))
        curve = lifted_param(lc, Vec2(1, 0))
        assert curve.denominators_vanish_at(0)  # vertical tangency at s=0
        assert curve.point_at(1) == Vec3(0, 1, 0)


class TestCubicSurface:
    def test_symbolic_origin_case(self):
        f = cubic_surface(DirectedPoint(Vec2(0, 0), 0))
        # z(y^2 - x^2) + 2xy
        assert f.terms == {
            (0, 2, 1): Fraction(1),
            (2, 0, 1): Fraction(-1),
            (1, 1, 0): Fraction(2),
        }

    def test_vanishes_at_base_point(self):
        rng = random.Random(15)
        for _ in range(20):
            a = _rand_dp(rng, 10, 10)
            f = cubic_surface(a)
            assert f.eval({"x": a.p.x, "y": a.p.y, "z": a.u}) == 0

    def test_arithmetic_example(self):
        f = cubic_surface(DirectedPoint(Vec2(0, 0), 0))
        assert f.eval({"x": 3, "y": 1, "z": Fraction(3, 4)}) == 0

    def test_vanishes_on_lifts_of_tangent_circles(self):
        rng = random.Random(16)
        dp0 = _rand_dp(rng, 10, 10)
        f = cubic_surface(dp0)
        for _ in range(30):
            s = rand_rat(rng, 10, 10)
            if s == 0:
                continue
            c = tangent_circle(dp0, s)
            assert is_tangent(dp0, c)
            lc = LiftedCircle(c)
            for _ in range(10):
                pt = lift_sample(lc, dp0.p, rng)
                assert f.eval({"x": pt.x, "y": pt.y, "z": pt.z}) == 0

    def test_restricts_to_zero_on_tangent_lift(self):
        # the whole lifted curve lies inside the cubic surface
        dp0 = DirectedPoint(Vec2(1, 2), Fraction(1, 3))
        f = cubic_surface(dp0)
        c = tangent_circle(dp0, 3)
        curve = lifted_param(LiftedCircle(c), dp0.p)
        assert restrict_to_curve(f, curve).is_zero()


def test_anchored_point_parameterization():
    rng = random.Random(17)
    for _ in range(50):
        g = rand_anchored(rng)
        assert anchored_point(g, 0) == Vec3(0, 0, 0)
        p = anchored_point(g, rand_rat(rng, 10, 10))
        assert anchored_incident(p, g)


def rotate_oracle(v: Vec3, a: Vec3, t: Fraction) -> Vec3:
    """The Cayley rotation ((1 - k) v + 2 t (a x v)) / (1 + k), k = |a|^2 t^2,
    by Fraction arithmetic alone."""
    k = a.norm2() * t * t
    return (v.scale(1 - k) + a.cross(v).scale(2 * t)).scale(Fraction(1) / (1 + k))


@settings(max_examples=300, deadline=None, derandomize=True, database=None, phases=(Phase.generate,))
@given(st.lists(st.just(Fraction(0)) | HUGE, min_size=7, max_size=7))
def test_rotate_matches_fraction_oracle_at_huge_magnitude(coords):
    v, a, t = Vec3(*coords[:3]), Vec3(*coords[3:6]), coords[6]
    assert _rotate(v, a, t) == rotate_oracle(v, a, t)
