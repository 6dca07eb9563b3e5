import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from incidencelab.exact import Vec2, Vec3
from incidencelab.generators import _rand_circle, _rand_dp, rand_rat
from incidencelab.tangency import (
    Circle2,
    DirectedPoint,
    FStatus,
    Line2,
    VerticalTangent,
    circles_tangent_to_line,
    common_circle,
    eval_F,
    is_tangent,
    orthogonal_tangent_circle,
    power,
    rotate_on_circle,
    tangent_at,
    tangent_circle,
    tangent_point_sample,
)


def dp(px, py, u):
    return DirectedPoint(Vec2(px, py), u)


def circ(cx, cy, r2):
    return Circle2(Vec2(cx, cy), r2)


def det3(r0: Vec3, r1: Vec3, r2: Vec3):
    return r0.dot(r1.cross(r2))


class TestIsTangent:
    def test_top_of_unit_circle(self):
        assert is_tangent(dp(0, 1, 0), circ(0, 0, 1))

    def test_wrong_direction(self):
        assert not is_tangent(dp(0, 1, 1), circ(0, 0, 1))

    def test_radius_perpendicular(self):
        # radius (3,-4) is perpendicular to direction (4,3): slope 3/4
        assert is_tangent(dp(3, 1, Fraction(3, 4)), circ(0, 5, 25))


class TestEvalF:
    def test_zero_when_common_circle(self):
        v, s = eval_F(dp(0, 0, 0), dp(3, 1, Fraction(3, 4)))
        assert s is FStatus.REGULAR and v == 0

    def test_nonzero_distance_mismatch(self):
        v, s = eval_F(dp(0, 0, 0), dp(3, 1, 1))
        assert s is FStatus.REGULAR
        assert v == 16 - 18  # |pw|^2 - |qw|^2 with w=(0,4), times (v-u)=1

    def test_parallel_perpendiculars(self):
        _, s = eval_F(dp(0, 0, 0), dp(2, 0, 0))
        assert s is FStatus.PARALLEL

    def test_coincident_foot(self):
        v, s = eval_F(dp(0, 0, 0), dp(0, 2, 0))
        assert s is FStatus.COINCIDENT
        assert v == 0  # F vanishes identically on the coincident locus

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError, match="identical directed points"):
            eval_F(dp(1, 2, 3), dp(1, 2, 3))


class TestCommonCircle:
    def test_known_pair(self):
        c = common_circle(dp(0, 0, 0), dp(3, 1, Fraction(3, 4)))
        assert c == circ(0, 5, 25)

    def test_no_circle_when_F_nonzero(self):
        assert common_circle(dp(0, 0, 0), dp(3, 1, 1)) is None

    def test_degenerate_branch_returns_none(self):
        assert common_circle(dp(0, 0, 0), dp(0, 2, 0)) is None

    def test_characterization_on_random_pairs(self):
        rng = random.Random(11)
        seen_circle = 0
        for _ in range(2000):
            a = _rand_dp(rng, 10, 10)
            b = _rand_dp(rng, 10, 10)
            if a == b:
                continue
            v, s = eval_F(a, b)
            c = common_circle(a, b)
            if c is not None:
                seen_circle += 1
                assert s is FStatus.REGULAR and v == 0
                assert is_tangent(a, c) and is_tangent(b, c)
        # random pairs essentially never admit a circle
        assert seen_circle == 0

    def test_characterization_on_circle_pairs(self):
        rng = random.Random(12)
        hits = 0
        for _ in range(500):
            c, base = _rand_circle(rng, 10, 10)
            a = tangent_point_sample(c, base, rng)
            b = tangent_point_sample(c, base, rng)
            if a == b:
                continue
            v, _ = eval_F(a, b)
            assert v == 0
            got = common_circle(a, b)
            if got is not None:
                assert got == c
                hits += 1
        assert hits > 400

    def test_three_common_circles_need_not_have_collinear_centres(self):
        # every pair is regular with F = 0, and each point's two common
        # circles are centred on its normal line, but the three centres are
        # the pairwise meets of three normals and are not collinear
        a = dp(0, 0, 0)
        b = dp(Fraction(3, 5), Fraction(9, 5), Fraction(-3, 4))
        c = dp(Fraction(24, 13), Fraction(36, 13), Fraction(-12, 5))
        circles = {}
        for x, y in combinations((a, b, c), 2):
            assert eval_F(x, y) == (0, FStatus.REGULAR)
            got = circles[x, y] = common_circle(x, y)
            assert is_tangent(x, got) and is_tangent(y, got)
        for x in (a, b, c):
            for pair, got in circles.items():
                if x in pair:
                    assert (got.center - x.p).dot(Vec2(1, x.u)) == 0
        centres = [got.center for got in circles.values()]
        assert centres == [Vec2(0, 1), Vec2(0, 2), Vec2(Fraction(12, 11), Fraction(27, 11))]
        assert det3(*(Vec3(w.x, w.y, 1) for w in centres)) != 0

    def test_pairwise_uniqueness(self):
        # Tangent circles to dp1 live on its normal line; tangency to dp2 pins
        # the normal parameter linearly, so a second common circle never
        # coexists with the one common_circle returns.
        rng = random.Random(13)
        for _ in range(300):
            c, base = _rand_circle(rng, 10, 10)
            a = tangent_point_sample(c, base, rng)
            b = tangent_point_sample(c, base, rng)
            if a == b:
                continue
            got = common_circle(a, b)
            if got is None:
                continue
            normal = Vec2(-a.u, 1)
            # second tangency equation is linear in s: solve and compare
            d = b.p - a.p
            denom = normal.dot(Vec2(1, b.u))
            if denom == 0:
                continue
            s = d.dot(Vec2(1, b.u)) / denom
            cand_center = a.p + normal.scale(s)
            r2 = s * s * normal.norm2()
            if r2 > 0:
                cand = Circle2(cand_center, r2)
                if is_tangent(a, cand) and is_tangent(b, cand):
                    assert cand == got


# Numerators up to 2^200 over denominators up to 2^64; the second branch
# keeps both near the top, which the first one rarely draws.
HUGE = (st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 64))
        | st.builds(lambda sign, n, d: Fraction(sign * n, d), st.sampled_from((1, -1)),
                    st.integers(2 ** 199, 2 ** 200), st.integers(2 ** 63, 2 ** 64)))
BRANCHES = ("shared",) * 5 + ("free", "parallel", "coincident", "same-point", "foot-on-p")


@st.composite
def common_circle_pairs(draw):
    """Two directed points and the circle they must share (None when free).
    Half share a member of a's pencil, b being a rotation of p on it with its
    tangent there.  The rest are a free b, parallel normals (equal slopes),
    coincident normals (b on a's normal), the same point with another slope
    (F = 0 with the foot at p) and b's normal through p (the foot at p)."""
    a = DirectedPoint(Vec2(draw(HUGE), draw(HUGE)), draw(HUGE))
    q, v = Vec2(draw(HUGE), draw(HUGE)), draw(HUGE)
    branch = draw(st.sampled_from(BRANCHES))
    if branch == "shared":
        circle = tangent_circle(a, draw(HUGE.filter(bool)))
        t = draw(st.fractions(-9, 9, max_denominator=9).filter(bool))
        try:
            return a, tangent_at(circle, rotate_on_circle(circle, a.p, t)), circle
        except VerticalTangent:
            assume(False)
    if branch == "parallel":
        v = a.u
    elif branch == "coincident":
        q, v = a.p + Vec2(-a.u, 1).scale(draw(HUGE.filter(bool))), a.u
    elif branch == "same-point":
        q = a.p
    elif branch == "foot-on-p":
        assume(q.y != a.p.y)
        v = (q.x - a.p.x) / (a.p.y - q.y)
    return a, DirectedPoint(q, v), None


@settings(max_examples=300, deadline=None, derandomize=True, database=None, phases=(Phase.generate,))
@given(common_circle_pairs())
def test_common_circle_iff_regular_zero_F_at_huge_magnitude(pair):
    a, b, planted = pair
    assume(a != b)
    value, status = eval_F(a, b)
    got = common_circle(a, b)
    # with F = 0 the foot w is a base point iff p = q, since |p - w| = |q - w|
    assert (got is not None) == (status is FStatus.REGULAR and value == 0 and a.p != b.p)
    if planted is not None:
        assert got == planted
    if got is not None:
        assert is_tangent(a, got) and is_tangent(b, got)


class TestPencil:
    def test_centre_on_normal(self):
        assert tangent_circle(dp(0, 0, 0), 5) == circ(0, 5, 25)
        assert tangent_circle(dp(3, 1, Fraction(3, 4)), -4) == circ(6, -3, 25)

    def test_zero_offset_rejected(self):
        with pytest.raises(ValueError):
            tangent_circle(dp(1, 2, 3), 0)


class TestPower:
    def test_on_circle(self):
        assert power(Vec2(0, 0), circ(0, 5, 25)) == 0

    def test_at_center(self):
        assert power(Vec2(3, 4), circ(3, 4, 25)) == -25

    def test_origin_on_circle(self):
        assert power(Vec2(0, 0), circ(3, 4, 25)) == 0


class TestOrthogonalTangentCircle:
    def test_solved_circle(self):
        c = orthogonal_tangent_circle(dp(0, 0, 0), Vec2(0, 5), 0)
        assert c == circ(0, Fraction(5, 2), Fraction(25, 4))
        assert power(Vec2(0, 5), c) == 0
        assert is_tangent(dp(0, 0, 0), c)

    def test_indeterminate_degenerate(self):
        assert orthogonal_tangent_circle(dp(0, 0, 0), Vec2(3, 0), 9) is None

    def test_cos_alpha_zero(self):
        assert orthogonal_tangent_circle(dp(0, 0, 0), Vec2(3, 0), 5) is None

    def test_coinciding_power_point_rejected(self):
        with pytest.raises(ValueError, match="power point coincides"):
            orthogonal_tangent_circle(dp(0, 0, 0), Vec2(0, 0), -1)

    def test_solution_count_within_two_sided_bound(self):
        # the signed-normal solve admits at most one center; the geometric
        # upper bound of two circles (one per side) is never exceeded and
        # exhaustive search over the solve never produces a second one
        rng = random.Random(18)
        for _ in range(300):
            a = _rand_dp(rng, 10, 10)
            w = Vec2(rand_rat(rng, 10, 10), rand_rat(rng, 10, 10))
            rho = rand_rat(rng, 10, 10)
            if w == a.p and rho <= 0:
                continue
            c = orthogonal_tangent_circle(a, w, rho)
            found = 0 if c is None else 1
            assert found <= 1 <= 2

    def test_random_outputs_satisfy_both_contracts(self):
        rng = random.Random(14)
        produced = 0
        for _ in range(500):
            a = _rand_dp(rng, 10, 10)
            w = Vec2(rand_rat(rng, 10, 10), rand_rat(rng, 10, 10))
            rho = rand_rat(rng, 10, 10)
            if w == a.p and rho <= 0:
                continue
            c = orthogonal_tangent_circle(a, w, rho)
            if c is None:
                continue
            produced += 1
            assert is_tangent(a, c)
            assert power(w, c) == rho
        assert produced > 400


class TestCirclesTangentToLine:
    def test_parallel_line_single_circle(self):
        n, cs = circles_tangent_to_line(dp(0, 0, 0), Line2(0, 1, -4))
        assert n == 1 and cs == [circ(0, 2, 4)]

    def test_parallel_line_below(self):
        n, cs = circles_tangent_to_line(dp(0, 0, 0), Line2(0, 1, 1))
        assert n == 1
        assert cs == [circ(0, Fraction(-1, 2), Fraction(1, 4))]

    def test_crossing_line_two_circles(self):
        n, cs = circles_tangent_to_line(dp(0, 0, 0), Line2(1, 0, -3))
        assert n == 2
        assert set((c.center.x, c.center.y, c.r2) for c in cs) == {
            (0, 3, 9), (0, -3, 9)
        }

    def test_point_on_line(self):
        n, cs = circles_tangent_to_line(dp(0, 0, 0), Line2(1, 1, 0))
        assert n == 0 and cs == []

    def test_coincident_tangent_line_rejected(self):
        with pytest.raises(ValueError, match="coincident tangent lines"):
            circles_tangent_to_line(dp(0, 0, 0), Line2(0, 1, 0))

    def test_count_never_exceeds_two_and_circles_check_out(self):
        rng = random.Random(15)
        for _ in range(500):
            a = _rand_dp(rng, 10, 10)
            la, lb, lc = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9)
            if (la, lb) == (0, 0):
                continue
            try:
                n, cs = circles_tangent_to_line(a, Line2(la, lb, lc))
            except ValueError:
                continue
            line = Line2(la, lb, lc)
            assert 0 <= n <= 2
            for c in cs:
                assert is_tangent(a, c)
                # tangency to the line: squared distance equals r2
                la, lb = Fraction(line.a), Fraction(line.b)
                assert line.eval_at(c.center) ** 2 == c.r2 * (la * la + lb * lb)


class TestTangentSampling:
    def test_tangent_at_known_point(self):
        got = tangent_at(circ(0, 5, 25), Vec2(3, 1))
        assert got == dp(3, 1, Fraction(3, 4))

    def test_trivial_top(self):
        assert tangent_at(circ(0, 0, 1), Vec2(0, 1)) == dp(0, 1, 0)

    def test_vertical_signals_resample(self):
        with pytest.raises(VerticalTangent):
            tangent_at(circ(0, 0, 1), Vec2(1, 0))

    def test_rotation_stays_on_circle(self):
        rng = random.Random(16)
        c, base = _rand_circle(rng, 10, 10)
        for _ in range(50):
            t = rand_rat(rng, 10, 10)
            p = rotate_on_circle(c, base, t)
            assert (p - c.center).norm2() == c.r2

    def test_samples_are_tangent(self):
        rng = random.Random(17)
        for _ in range(100):
            c, base = _rand_circle(rng, 10, 10)
            a = tangent_point_sample(c, base, rng)
            assert is_tangent(a, c)


def test_line2_canonical_form():
    assert Line2(Fraction(1, 2), Fraction(-1, 4), 1) == Line2(2, -1, 4)
    assert Line2(-2, 4, -6) == Line2(1, -2, 3)
    with pytest.raises(ValueError):
        Line2(0, 0, 5)
