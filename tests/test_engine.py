import math
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from incidencelab.anchored import AnchoredCircle, anchored_point, sphere_point, tangent_basis
from incidencelab.dual3 import Line3, circle_dual, dp_dual_line, dual_incidence
from incidencelab.engine import (
    CSV_HEADER,
    KINDS,
    IncidenceReport,
    bound_ratio,
    count,
    exponent_fit,
    t_rich_points,
)
from incidencelab.exact import Vec2, Vec3
from incidencelab.generators import GenSpec, gen
from incidencelab.tangency import Circle2, DirectedPoint, rotate_on_circle, tangent_at
from incidencelab.verify import anchored_edges
from test_dual3 import as_line3


class TestCount:
    def test_pencil_total(self):
        inst, _ = gen(GenSpec("pencil", 1, 25, seed=3))
        rep = count(inst.points, inst.curves)
        assert rep.total == 25
        assert rep.per_point == [25]
        assert rep.per_curve == [1] * 25

    def test_empty_sides(self):
        assert count([], []).total == 0
        inst, _ = gen(GenSpec("random-tangency", 5, 5, seed=1))
        assert count(inst.points, []).total == 0
        assert count([], inst.curves).total == 0

    # the brute force uses forms independent of the engine's integer kernels
    @pytest.mark.parametrize("spec, incident", [
        (GenSpec("circle-sampled", 40, 10, seed=4), dual_incidence),
        (GenSpec("anchored-planted", 40, 20, seed=4),
         lambda p, g: g.n.dot(p) == 0 and (p - g.c).norm2() == 1),
        (GenSpec("st-grid-horizontal-lines", 60, 60, seed=4),
         lambda x, line: (x - line.point).cross(line.direction).is_zero()),
    ], ids=["tangency", "anchored", "lines3"])
    def test_exact_agrees_with_predicate(self, spec, incident):
        inst, _ = gen(spec)
        rep = count(inst.points, inst.curves, mode="exact")
        brute = [sum(1 for c in inst.curves if incident(p, c)) for p in inst.points]
        assert rep.total > 0
        assert rep.per_point == brute

    def test_modes_agree_on_planted(self):
        inst, _ = gen(GenSpec("circle-sampled", 300, 60, seed=5))
        a = count(inst.points, inst.curves, mode="exact")
        b = count(inst.points, inst.curves, mode="prefilter")
        assert a.total == b.total == 300
        assert a.per_point == b.per_point
        assert a.per_curve == b.per_curve

    def test_modes_agree_anchored(self):
        # besides the planted instance, the crafted circles and points of
        # anchored_edges: on the sphere but off the plane, and the reverse
        inst, _ = gen(GenSpec("anchored-planted", 60, 40, seed=6))
        crafted, extra = anchored_edges()
        points, circles = inst.points + crafted, inst.curves + extra
        incident = [[g.n.dot(p) == 0 and (p - g.c).norm2() == 1 for g in circles] for p in points]
        assert [sum(row[-2:]) for row in incident[-len(crafted):]] == [0, 0, 1, 1, 0, 0, 1]
        for mode in ("exact", "prefilter"):
            rep = count(points, circles, mode=mode)
            assert rep.per_point == [sum(row) for row in incident]
            assert rep.per_curve == [sum(col) for col in zip(*incident)]

    def test_modes_agree_lines(self):
        inst, planted = gen(GenSpec("st-grid-horizontal-lines", 250, 250, seed=0))
        a = count(inst.points, inst.curves, mode="exact")
        b = count(inst.points, inst.curves, mode="prefilter")
        assert a.total == b.total == planted

    def test_thread_determinism(self):
        inst, _ = gen(GenSpec("circle-sampled", 200, 50, seed=7))
        reps = [
            count(inst.points, inst.curves, mode="prefilter", threads=th, tile=64)
            for th in (1, 2, 8)
        ]
        for rep in reps[1:]:
            assert rep.total == reps[0].total
            assert rep.per_point == reps[0].per_point
            assert rep.per_curve == reps[0].per_curve

    def test_histogram_consistency(self):
        inst, _ = gen(GenSpec("circle-sampled", 100, 20, seed=8))
        rep = count(inst.points, inst.curves)
        assert rep.total == sum(rep.per_point) == sum(rep.per_curve)

    def test_mixed_kinds_rejected(self):
        inst, _ = gen(GenSpec("random-tangency", 3, 3, seed=9))
        anch, _ = gen(GenSpec("anchored-random", 3, 3, seed=9))
        with pytest.raises(ValueError, match="no instance kind counts DirectedPoint points on AnchoredCircle curves"):
            count(inst.points, anch.curves)
        with pytest.raises(ValueError, match="mixed instance kinds"):
            count(inst.points + anch.points, inst.curves)
        with pytest.raises(ValueError, match="no instance kind counts Vec3 points on DualLine3 curves"):
            count(anch.points, [dp_dual_line(p) for p in inst.points])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            count([], [], mode="fast")


class TestRichPoints:
    def test_pencil_point_is_rich(self):
        inst, _ = gen(GenSpec("pencil", 1, 10, seed=10))
        rich = t_rich_points(inst.points, inst.curves, 2)
        assert rich == inst.points

    def test_disjoint_instance_empty(self):
        inst, _ = gen(GenSpec("random-tangency", 10, 10, seed=11))
        assert t_rich_points(inst.points, inst.curves, 1) == []

    def test_planted_rich_points_recovered(self):
        # three points tangent to 3 circles each: plant via three pencils
        rng = random.Random(12)
        points, curves = [], []
        for _ in range(3):
            inst, _ = gen(GenSpec("pencil", 1, 3, seed=rng.randint(0, 9999)))
            points.extend(inst.points)
            curves.extend(inst.curves)
        rich = t_rich_points(points, curves, 3)
        assert set(id(p) for p in rich) == set(id(p) for p in points)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            t_rich_points([], [], 0)


class TestFits:
    def test_bound_ratio(self):
        rep = IncidenceReport(100, 100, 200, [], [], "exact", "tangency", 0.0)
        denom = 100 ** 0.6 * 100 ** 0.6 + 200
        assert abs(bound_ratio(rep) - 200 / denom) < 1e-12

    def test_linear_family_slope_one(self):
        series = [(m, m, 2 * m) for m in (512, 1024, 2048, 4096, 8192)]
        slope, _, _ = exponent_fit(series)
        assert abs(slope - 1.0) < 0.01

    def test_quadratic_family(self):
        series = [(m, m, m * m) for m in (512, 1024, 2048)]
        slope, _, _ = exponent_fit(series)
        assert abs(slope - 2.0) < 0.01

    def test_pencil_scaling_uses_n(self):
        series = [(1, n, n) for n in (100, 200, 400, 800)]
        slope, _, _ = exponent_fit(series)
        assert abs(slope - 1.0) < 0.01

    def test_degenerate_series_rejected(self):
        with pytest.raises(ValueError):
            exponent_fit([(10, 10, 0), (20, 20, 0), (40, 40, 5)])
        with pytest.raises(ValueError):
            exponent_fit([(10, 10, 5), (10, 10, 6), (10, 10, 7)])


def test_dual_lines_as_curves():
    # dual points against dual lines count the same incidences as the
    # primal tangencies they encode
    inst, planted = gen(GenSpec("circle-sampled", 30, 10, seed=13))
    duals = [circle_dual(c) for c in inst.curves]
    lines = [as_line3(dp_dual_line(p)) for p in inst.points]
    primal = count(inst.points, inst.curves)
    dual = count(duals, lines)
    assert dual.total == primal.total
    assert dual.per_point == primal.per_curve
    assert dual.per_curve == primal.per_point


def test_report_csv_shape():
    rep = IncidenceReport(2, 3, 4, [2, 2], [2, 1, 1], "exact", "tangency", 0.5)
    assert CSV_HEADER.split(",") == ["m", "n", "total", "mode", "seconds"]
    row = rep.csv_row().split(",")
    assert row[:4] == ["2", "3", "4", "exact"]


def _typed_instance(curve_type):
    """A small instance with incidences whose curves have this type."""
    if curve_type is AnchoredCircle:
        inst, _ = gen(GenSpec("anchored-planted", 30, 10, seed=6))
        return inst.points, inst.curves
    inst, _ = gen(GenSpec("circle-sampled", 30, 10, seed=13))
    if curve_type is Circle2:
        return inst.points, inst.curves
    return [circle_dual(c) for c in inst.curves], [as_line3(dp_dual_line(p)) for p in inst.points]


@pytest.mark.parametrize("point_type, curve_type, kind", [
    (DirectedPoint, Circle2, "tangency"),
    (Vec3, AnchoredCircle, "anchored"),
    (Vec3, Line3, "lines3"),
])
def test_every_accepted_type_pair(point_type, curve_type, kind):
    points, curves = _typed_instance(curve_type)
    assert {type(p) for p in points} == {point_type}
    assert {type(c) for c in curves} == {curve_type}
    exact = count(points, curves, mode="exact")
    pre = count(points, curves, mode="prefilter", tile=7)
    assert exact.kind == pre.kind == kind
    assert exact.total > 0
    assert (pre.total, pre.per_point, pre.per_curve) == (exact.total, exact.per_point, exact.per_curve)


@pytest.mark.parametrize("spec, kind, total, tau", [
    (GenSpec("circle-sampled", 40, 10, seed=3), "tangency", 40,
     (1.8263280376370447e-05,) * 2),
    (GenSpec("anchored-planted", 30, 10, seed=3), "anchored", 39,
     (6.066749127609677e-14,) * 2),
    (GenSpec("st-grid-horizontal-lines", 100, 100, seed=0), "lines3", 457,
     (1.4566126083082054e-11,) * 3),
])
def test_golden_tau(spec, kind, total, tau):
    # Any change to the float rows, the magnitude bound or the tolerance
    # polynomial moves these bit-exact values.
    inst, _ = gen(spec)
    rep = count(inst.points, inst.curves, mode="prefilter")
    assert (rep.kind, rep.total, rep.tau) == (kind, total, tau)


@pytest.mark.parametrize("exponent", [200, 400])
@pytest.mark.parametrize("kind", ["tangency", "lines3"])
def test_prefilter_matches_exact_at_huge_magnitude(kind, exponent):
    # 10^200 squares past the float range and 10^400 does not convert at
    # all; the prefilter must confirm exactly instead of failing or
    # screening with an infinite tolerance.
    big = 10 ** exponent
    if kind == "tangency":
        points = [DirectedPoint(Vec2(big, 0), 0), DirectedPoint(Vec2(big, 0), 1)]
        curves = [Circle2(Vec2(big, 1), 1), Circle2(Vec2(0, 0), 1)]
    else:
        points = [Vec3(big + 5, 5, 0), Vec3(big, 1, 0)]
        curves = [Line3(Vec3(big, 0, 0), Vec3(1, 1, 0)), Line3(Vec3(0, 0, 0), Vec3(0, 0, 1))]
    exact = count(points, curves, mode="exact")
    pre = count(points, curves, mode="prefilter")
    assert exact.total == 1
    assert (pre.kind, pre.total, pre.per_point, pre.per_curve) == \
        (exact.kind, exact.total, exact.per_point, exact.per_curve)
    assert pre.tau is None and pre.screened is None and pre.candidates is None
    assert pre.to_json()["tau"] is None  # the fallback shows in the report


# ---------------------------------------------------------------------------
# Adversarial screens: every instance is built from exact incidences, copies
# of them moved by one ulp, and magnitudes at the edges of the float range.
# ---------------------------------------------------------------------------

# Fixed draws and no shrinking: a failure reports its drawn instance within
# seconds, where shrinking instances of 2^240-sized fractions takes minutes.
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None,
                    phases=(Phase.generate,))
KIND = {kind.name: kind for kind in KINDS}
# unit; numerators near 2^240 (squares just under SCREEN_MAX); denominators
# near 10^200 (lifted squares underflow)
SCALES = (Fraction(1), Fraction(2 ** 240 + 1), Fraction(1, 10 ** 200 + 3))
small = st.fractions(-40, 40, max_denominator=12)
nonzero = st.builds(Fraction, st.integers(1, 40), st.integers(1, 12)).flatmap(
    lambda x: st.sampled_from((x, -x)))


def ulp_off(x: Fraction) -> Fraction:
    """x moved by one ulp of its float: not exact, but inside any float screen."""
    return x + Fraction(math.ulp(float(x)))


def nudge(draw, v: Vec3) -> Vec3:
    axis = draw(st.sampled_from((None, None, None, 0, 1, 2)))
    if axis is None:
        return v
    xyz = [v.x, v.y, v.z]
    xyz[axis] = ulp_off(xyz[axis])
    return Vec3(*xyz)


@st.composite
def tangency_piece(draw):
    s = draw(st.sampled_from(SCALES))
    center = Vec2(draw(small) * s, draw(small) * s)
    r = draw(st.fractions(Fraction(1, 4), 40, max_denominator=12)) * s
    circle = Circle2(center, r * r)
    base = center + Vec2(r, 0)
    points = []
    for t in draw(st.lists(nonzero, min_size=1, max_size=4)):  # t != 0: never vertical
        dp = tangent_at(circle, rotate_on_circle(circle, base, t))
        how = draw(st.sampled_from(("exact", "exact", "x", "u")))
        if how == "x":
            dp = DirectedPoint(Vec2(ulp_off(dp.p.x), dp.p.y), dp.u)
        elif how == "u":
            dp = DirectedPoint(dp.p, ulp_off(dp.u))
        points.append(dp)
    curves = [circle, Circle2(center, ulp_off(circle.r2))] if draw(st.booleans()) else [circle]
    return points, curves


@st.composite
def anchored_piece(draw):
    scale = draw(st.sampled_from(("unit", "huge", "tiny")))
    if scale == "huge":  # centre numerators near 2^240, normal near 2^360
        big = 2 ** 60
        alpha = Fraction(big + draw(st.integers(1, 99)), big + draw(st.integers(1, 99)))
        beta = Fraction(big - draw(st.integers(1, 99)), big + draw(st.integers(1, 99)))
    else:
        alpha, beta = draw(small), draw(small)
    c = sphere_point(alpha, beta)
    e1, e2 = tangent_basis(c)
    n = e1.scale(draw(nonzero)) + e2.scale(draw(small))
    circle = AnchoredCircle(c, n)
    ts = draw(st.lists(nonzero, min_size=1, max_size=4))
    if scale == "tiny":  # points within 10^-199 of the origin
        ts = [t / (10 ** 200 + 3) for t in ts]
    return [nudge(draw, anchored_point(circle, t)) for t in ts], [circle]


@st.composite
def line_piece(draw):
    s = draw(st.sampled_from(SCALES))
    q = Vec3(draw(small) * s, draw(small) * s, draw(small) * s)
    ints = st.integers(-6, 6)
    v = Vec3(draw(ints), draw(ints), 0 if draw(st.booleans()) else draw(ints))
    if v.is_zero():
        v = Vec3(1, 0, 0)
    line = Line3(q, v)
    points = [nudge(draw, q + v.scale(t * s)) for t in draw(st.lists(small, min_size=1, max_size=4))]
    return points, [line]


def instance(pieces):
    """Pieces in one instance, so magnitudes mix whenever their scales differ."""
    return [p for ps, _ in pieces for p in ps], [c for _, cs in pieces for c in cs]


def assert_screens_exactly(points, curves):
    """The prefilter report at threads 1 and 3 and boxes of 1, 2 and 7
    points, checked equal to exact mode."""
    exact = count(points, curves, mode="exact")
    for threads in (1, 3):
        for tile in (1, 2, 7):
            pre = count(points, curves, mode="prefilter", threads=threads, tile=tile)
            assert (pre.kind, pre.total, pre.per_point, pre.per_curve) == \
                (exact.kind, exact.total, exact.per_point, exact.per_curve)
            assert pre.tau is not None  # the float screen ran; no fallback to all pairs
            assert pre.total <= pre.candidates <= pre.screened <= len(points) * len(curves)
    return pre


def on_ray(centre, target, scales):
    """Points centre + s (target - centre): their bounding box has target as
    its far corner from the centre when every s < 1, its near one when s > 1."""
    return [centre + (target - centre).scale(s) for s in scales]


inside = st.lists(st.fractions(Fraction(1, 8), Fraction(7, 8), max_denominator=9), min_size=1, max_size=5)
outside = st.lists(st.fractions(Fraction(9, 8), 3, max_denominator=9), min_size=1, max_size=5)


@st.composite
def tangency_shell_piece(draw):
    """An exact tangency at the far (or near) corner of the box of points
    on its ray: the rest of the box lies strictly inside (or outside)."""
    s = draw(st.sampled_from(SCALES))
    center = Vec2(draw(small) * s, draw(small) * s)
    r = draw(st.fractions(Fraction(1, 4), 40, max_denominator=12)) * s
    circle = Circle2(center, r * r)
    dp = tangent_at(circle, rotate_on_circle(circle, center + Vec2(r, 0), draw(nonzero)))
    rest = on_ray(center, dp.p, draw(st.one_of(inside, outside)))
    return [dp] + [DirectedPoint(p, dp.u) for p in rest], [circle]


@st.composite
def anchored_shell_piece(draw):
    """The same on an anchored circle: its point is the far (or near)
    corner of the box of points on the ray from the centre."""
    c = sphere_point(draw(small), draw(small))
    e1, e2 = tangent_basis(c)
    circle = AnchoredCircle(c, e1.scale(draw(nonzero)) + e2.scale(draw(small)))
    p = anchored_point(circle, draw(nonzero))
    return [p] + on_ray(c, p, draw(st.one_of(inside, outside))), [circle]


@PROPERTY
@given(st.lists(tangency_piece(), min_size=1, max_size=4))
def test_tangency_screen_is_exact(pieces):
    assert_screens_exactly(*instance(pieces))


@PROPERTY
@given(st.lists(anchored_piece(), min_size=1, max_size=3))
def test_anchored_screen_is_exact(pieces):
    assert_screens_exactly(*instance(pieces))


@PROPERTY
@given(st.lists(line_piece(), min_size=1, max_size=4))
def test_lines3_screen_is_exact(pieces):
    assert_screens_exactly(*instance(pieces))


@PROPERTY
@given(st.lists(tangency_shell_piece(), min_size=1, max_size=3))
def test_tangency_cull_keeps_box_corners(pieces):
    points, curves = instance(pieces)
    assert assert_screens_exactly(points, curves).total >= len(pieces)


@PROPERTY
@given(st.lists(anchored_shell_piece(), min_size=1, max_size=3))
def test_anchored_cull_keeps_box_corners(pieces):
    points, curves = instance(pieces)
    assert assert_screens_exactly(points, curves).total >= len(pieces)


def test_cull_screens_only_reachable_circles():
    # one box of seven points on the ray to (3, 4), on circle 0 or inside
    # it; circle 1 holds the whole box, circle 2 lies far from it, and only
    # circle 0 reaches it, so exactly its 7 pairs are screened
    circle = Circle2(Vec2(0, 0), 25)
    dp = tangent_at(circle, Vec2(3, 4))
    rest = on_ray(Vec2(0, 0), dp.p, [1 - Fraction(k, 40) for k in range(1, 7)])
    points = [dp] + [DirectedPoint(p, dp.u) for p in rest]
    curves = [circle, Circle2(Vec2(0, 0), 100), Circle2(Vec2(50, 0), 1)]
    pre = assert_screens_exactly(points, curves)
    assert pre.per_curve == [1, 0, 0]
    assert (pre.screened, pre.candidates) == (7, 1)


def test_cull_prunes_random_tangency():
    # random circles meet few boxes: a cull that passed every curve would
    # screen all m*n pairs
    inst, _ = gen(GenSpec("random-tangency", 2000, 2000, seed=22))
    rep = count(inst.points, inst.curves, mode="prefilter")
    assert rep.total == rep.candidates == 0
    assert 0 < rep.screened <= 0.3 * rep.m * rep.n


@pytest.mark.parametrize("scale", SCALES)
def test_screen_edges_are_reached(scale):
    # one exact tangency and its one-ulp neighbour at each scale: the screen
    # runs (tau is finite), keeps the incidence and confirm drops the neighbour
    center, r = Vec2(3 * scale, -2 * scale), 5 * scale
    circle = Circle2(center, r * r)
    dp = tangent_at(circle, center + Vec2(3 * r / 5, 4 * r / 5))
    near = DirectedPoint(Vec2(ulp_off(dp.p.x), dp.p.y), dp.u)
    pre = assert_screens_exactly([dp, near], [circle])
    assert pre.per_point == [1, 0]
    if scale > 1:  # M = r^2 is near 2^485, just under SCREEN_MAX
        assert 2.0 ** 900 < pre.tau[0]
    if scale < 1:  # the lifted |p|^2 underflows to 0
        assert KIND["tangency"].lift_point(KIND["tangency"].int_point(dp))[3] == 0.0


def test_anchored_screen_takes_a_huge_normal():
    # the plane column is the normal over a power of two, so a normal past the
    # float range neither overflows nor sets the magnitude M
    circle = AnchoredCircle(Vec3(0, 0, 1), Vec3(2 ** 1100 + 1, 2 ** 1100, 0))
    points = [anchored_point(circle, t) for t in (1, 2, -3, Fraction(1, 5))] + [Vec3(1, 1, 1)]
    pre = assert_screens_exactly(points, [circle])
    assert pre.per_point == [1, 1, 1, 1, 0]


@pytest.mark.parametrize("kind, total", [("anchored-planted", 359), ("anchored-random", 0)])
def test_anchored_screen_decides(kind, total):
    # with M set by the points alone, the screen passes no pair that confirm drops
    inst, _ = gen(GenSpec(kind, 300, 60, seed=3))
    rep = count(inst.points, inst.curves, mode="prefilter")
    assert rep.candidates == rep.total == total


# ---------------------------------------------------------------------------
# Lift identity: on dyadic inputs every float is exact, so each row . column
# must equal its residual evaluated in Fraction.  Every kind lifts a point to
# one row that starts with its float coordinates, and every column is as wide.
# ---------------------------------------------------------------------------

dyadic = st.builds(Fraction, st.integers(-64, 64), st.sampled_from((1, 2, 4, 8)))


def lifted(kind_name, point, curve, coords):
    kind = KIND[kind_name]
    row, cols = kind.lift_point(kind.int_point(point)), kind.lift_curve(kind.int_curve(curve))
    assert row[:3] == tuple(map(float, coords))
    assert len(cols) == len(kind.tolerance(1.0))
    assert all(len(col) == len(row) for col in cols)
    return [sum(Fraction(a) * Fraction(b) for a, b in zip(row, col)) for col in cols]


@PROPERTY
@given(dyadic, dyadic, dyadic, dyadic, dyadic, dyadic.filter(lambda x: x > 0))
def test_lift_identity_tangency(px, py, u, cx, cy, r2):
    dp, circle = DirectedPoint(Vec2(px, py), u), Circle2(Vec2(cx, cy), r2)
    dx, dy = px - cx, py - cy
    assert lifted("tangency", dp, circle, (px, py, u)) == [dx * dx + dy * dy - r2, u * dy + dx]


@PROPERTY
@given(dyadic, dyadic, dyadic, st.integers(0, 2), st.sampled_from((1, -1)),
       st.integers(-9, 9), st.integers(1, 9))
def test_lift_identity_anchored(px, py, pz, axis, sign, n1, n2):
    # dyadic unit centres are the axis points; the normal is orthogonal to it
    c, n = [0, 0, 0], [0, 0, 0]
    c[axis] = sign
    n[(axis + 1) % 3], n[(axis + 2) % 3] = n1, n2
    p, circle = Vec3(px, py, pz), AnchoredCircle(Vec3(*c), Vec3(*n))
    w = p - circle.c
    s = max(abs(x) for x in (circle.n.x, circle.n.y, circle.n.z)).numerator.bit_length()
    assert lifted("anchored", p, circle, (px, py, pz)) == [w.norm2() - 1, circle.n.dot(p) / 2 ** s]


@PROPERTY
@given(dyadic, dyadic, dyadic, st.tuples(*[st.integers(-9, 9)] * 3), st.tuples(*[st.integers(-5, 5)] * 3))
def test_lift_identity_lines3(px, py, pz, q, v):
    # an integer base point keeps q x v integral after Line3 moves it to the foot
    if not any(v):
        v = (0, 0, 1)
    p, line = Vec3(px, py, pz), Line3(Vec3(*q), Vec3(*v))
    w = (p - line.point).cross(line.direction)
    assert lifted("lines3", p, line, (px, py, pz)) == [w.z, w.x, w.y]
