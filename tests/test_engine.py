import random

import pytest

from incidencelab.anchored import AnchoredCircle
from incidencelab.dual3 import Line3, circle_dual, dp_dual_line
from incidencelab.engine import (
    CSV_HEADER,
    IncidenceReport,
    bound_ratio,
    count,
    exponent_fit,
    t_rich_points,
)
from incidencelab.exact import Vec2, Vec3
from incidencelab.generators import GenSpec, gen
from incidencelab.tangency import Circle2, DirectedPoint, is_tangent


def random_tangency_instance(rng, m, n):
    inst, _ = gen(GenSpec("random-tangency", m, n, seed=rng.randint(0, 10 ** 9)))
    return inst.points, inst.curves


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

    def test_exact_agrees_with_predicate(self):
        rng = random.Random(4)
        pts, cvs = random_tangency_instance(rng, 40, 40)
        rep = count(pts, cvs, mode="exact")
        brute = sum(1 for p in pts for c in cvs if is_tangent(p, c))
        assert rep.total == brute

    def test_modes_agree_on_planted(self):
        inst, _ = gen(GenSpec("circle-sampled", 300, 60, seed=5))
        a = count(inst.points, inst.curves, mode="exact")
        b = count(inst.points, inst.curves, mode="prefilter")
        assert a.total == b.total == 300
        assert a.per_point == b.per_point
        assert a.per_curve == b.per_curve

    def test_modes_agree_anchored(self):
        inst, _ = gen(GenSpec("anchored-planted", 60, 40, seed=6))
        a = count(inst.points, inst.curves, mode="exact")
        b = count(inst.points, inst.curves, mode="prefilter")
        assert a.total == b.total
        assert a.per_point == b.per_point

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
    lines = [dp_dual_line(p).as_line3() for p in inst.points]
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
    return [circle_dual(c) for c in inst.curves], [dp_dual_line(p).as_line3() for p in inst.points]


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
     (1.5645640161091477e+36,) * 2),
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
    assert pre.tau is None
