"""Acceptance criteria, one test per criterion, full stated sizes.

Each test prints a single ACCEPT-nn PASS/FAIL line (run pytest -s to see
them inline); failures also fail the test.  Seeds are pinned so every run
is identical.
"""

import random
import time
from fractions import Fraction

from incidencelab import anchored as anc
from incidencelab import dual3
from incidencelab.engine import bound_ratio, count, exponent_fit
from incidencelab.exact import Vec2, Vec3, det3
from incidencelab.generators import GenSpec, eval_Fstar, gen, horizontal_line_Fstar
from incidencelab.generators import _rand_circle as rand_circle
from incidencelab.generators import _rand_dp as rand_dp
from incidencelab.generators import rand_rat as rr
from incidencelab.partition import build_partition, classify, curve_crossings
from incidencelab.polynomials import restrict_to_curve
from incidencelab.tangency import (
    Circle2,
    FStatus,
    common_circle,
    eval_F,
    is_tangent,
    power,
    tangent_point_sample,
)
from incidencelab.verify import numeric_crossing_count


def report(num, desc):
    def wrap(fn):
        def run():
            try:
                detail = fn()
            except BaseException as exc:
                print(f"ACCEPT-{num:02d} FAIL: {desc} :: {exc}")
                raise
            print(f"ACCEPT-{num:02d} PASS: {desc}" + (f" :: {detail}" if detail else ""))
        run.__name__ = fn.__name__
        return run
    return wrap


@report(1, "master duality: is_tangent == dual_incidence == lifted_contains on 1e5 pairs")
def test_master_duality_equivalence():
    rng = random.Random(101)
    start = time.perf_counter()
    mismatches = 0
    for i in range(100_000):
        c, base = rand_circle(rng)
        if i % 10 == 0:  # exercise the incident branch too
            a = tangent_point_sample(c, base, rng)
        else:
            a = rand_dp(rng)
        t1 = is_tangent(a, c)
        t2 = dual3.dual_incidence(a, c)
        t3 = anc.lifted_contains(anc.LiftedCircle(c), Vec3(a.p.x, a.p.y, a.u))
        if not (t1 == t2 == t3):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    return f"0 discrepancies in {elapsed:.1f}s"


@report(2, "power-plane correspondence and round trip on 1e4 pairs")
def test_power_plane_correspondence():
    rng = random.Random(102)
    for _ in range(10_000):
        c, _ = rand_circle(rng)
        a, b, d = rr(rng), rr(rng), rr(rng)
        pp = dual3.PowerPlane(a, b, d)
        assert dual3.dual_on_plane(c, pp) == (power(pp.w, c) == pp.rho)
        assert dual3.encode_power(pp.w, pp.rho) == pp
    return "dual-on-plane iff power equality, encode/decode identity"


@report(3, "F-consistency: circle implies regular zero F; on-circle pairs give F = 0")
def test_F_consistency():
    rng = random.Random(103)
    produced = 0
    for _ in range(10_000):
        a, b = rand_dp(rng), rand_dp(rng)
        if a == b:
            continue
        circle = common_circle(a, b)
        if circle is not None:
            produced += 1
            value, status = eval_F(a, b)
            assert status is FStatus.REGULAR and value == 0
            assert is_tangent(a, circle) and is_tangent(b, circle)
    zeros = 0
    for _ in range(10_000):
        c, base = rand_circle(rng)
        a = tangent_point_sample(c, base, rng)
        b = tangent_point_sample(c, base, rng)
        if a == b:
            continue
        value, _ = eval_F(a, b)
        assert value == 0
        zeros += 1
    return f"{produced} random-pair circles all verified; {zeros} on-circle pairs gave F=0"


@report(4, "cubic surface vanishes on 1e4 exact lift samples")
def test_cubic_surface_vanishing():
    rng = random.Random(104)
    dp0 = rand_dp(rng)
    f = anc.cubic_surface(dp0)
    normal = Vec2(-dp0.u, 1)
    evaluations = 0
    while evaluations < 10_000:
        s = rr(rng)
        if s == 0:
            continue
        c = Circle2(dp0.p + normal.scale(s), s * s * normal.norm2())
        lc = anc.LiftedCircle(c)
        for _ in range(10):
            pt = anc.lift_sample(lc, dp0.p, rng)
            assert f.eval({"x": pt.x, "y": pt.y, "z": pt.z}) == 0
            evaluations += 1
    return f"{evaluations} evaluations, all exactly zero"


@report(5, "triple collinearity on engineered triples; no random counterexample")
def test_collinearity_consequence():
    rng = random.Random(105)
    engineered = 0
    while engineered < 10_000:
        c, base = rand_circle(rng)
        dps = [tangent_point_sample(c, base, rng) for _ in range(3)]
        if len({(d.p, d.u) for d in dps}) < 3:
            continue
        centers = []
        ok = True
        for i in range(3):
            for j in range(i + 1, 3):
                cc = common_circle(dps[i], dps[j])
                if cc is None:
                    ok = False
                    break
                centers.append(cc.center)
            if not ok:
                break
        if not ok:
            continue
        det = det3(
            Vec3(centers[0].x, centers[0].y, 1),
            Vec3(centers[1].x, centers[1].y, 1),
            Vec3(centers[2].x, centers[2].y, 1),
        )
        assert det == 0
        engineered += 1
    counterexamples = 0
    candidates = 0
    for _ in range(100_000):
        dps = [rand_dp(rng) for _ in range(3)]
        if len({(d.p, d.u) for d in dps}) < 3:
            continue
        all_zero_regular = True
        for i in range(3):
            for j in range(i + 1, 3):
                v, s = eval_F(dps[i], dps[j])
                if s is not FStatus.REGULAR or v != 0:
                    all_zero_regular = False
                    break
            if not all_zero_regular:
                break
        if not all_zero_regular:
            continue
        candidates += 1
        centers = [common_circle(dps[i], dps[j]).center
                   for i in range(3) for j in range(i + 1, 3)]
        det = det3(
            Vec3(centers[0].x, centers[0].y, 1),
            Vec3(centers[1].x, centers[1].y, 1),
            Vec3(centers[2].x, centers[2].y, 1),
        )
        if det != 0:
            counterexamples += 1
    assert counterexamples == 0
    return f"{engineered} engineered triples collinear; search: {candidates} candidate triples, 0 counterexamples"


@report(6, "anchored structure: pair uniqueness, 2-point bound, boundary midpoint")
def test_anchored_structure():
    from incidencelab.generators import rand_anchored_circle

    rng = random.Random(106)
    returned = 0
    for i in range(10_000):
        if i % 2 == 0:
            p = Vec3(rr(rng, 2, 25), rr(rng, 2, 25), rr(rng, 2, 25))
            q = Vec3(rr(rng, 2, 25), rr(rng, 2, 25), rr(rng, 2, 25))
        else:
            g = rand_anchored_circle(rng)
            p = anc.anchored_point_sample(g, rng)
            q = anc.anchored_point_sample(g, rng)
        try:
            got = anc.anchored_through_pair(p, q)
        except ValueError:
            continue
        if got is not None:
            returned += 1
            assert anc.anchored_incident(p, got) and anc.anchored_incident(q, got)
    pairs = 0
    for _ in range(10_000):
        g1 = rand_anchored_circle(rng)
        g2 = rand_anchored_circle(rng)
        if g1 == g2:
            continue
        pts = anc.anchored_pair_intersections(g1, g2)
        assert 1 <= len(pts) <= 2 and pts[0].is_zero()
        for x in pts:
            assert anc.anchored_incident(x, g1) and anc.anchored_incident(x, g2)
        pairs += 1
    boundary = 0
    while boundary < 1_000:
        c = anc.sphere_point(rr(rng, 3, 10), rr(rng, 3, 10))
        p = c.scale(2)
        assert p.norm2() == 4
        for g in anc.h_p_sample(p, 3, rng):
            assert g.c == c  # the midpoint of the segment from o to p
            assert anc.anchored_incident(p, g)
        boundary += 1
    return f"{returned} through-pair circles verified; {pairs} circle pairs bounded; {boundary} boundary samples hit the midpoint"


@report(7, "partition contract at m=4096, r=4 with crossing soundness and Bezout bound")
def test_partition_contract():
    rng = random.Random(107)
    pts = [Vec3(rr(rng), rr(rng), rr(rng)) for _ in range(4096)]
    pp = build_partition(pts, 4, 0.1, seed=20260810)
    ca = classify(pts, pp)
    limit = 1.1 * 4096 / 16
    assert ca.max_population() <= limit, f"{ca.max_population()} > {limit}"
    curves = 0
    while curves < 100:
        c, base = rand_circle(rng, 10, 10)
        curve = anc.lifted_param(anc.LiftedCircle(c), base)
        rep = curve_crossings(curve, pp)
        for fi, f in enumerate(pp.factors):
            restricted = restrict_to_curve(f, curve)
            if restricted.is_zero():
                continue
            assert rep.per_factor[fi] == numeric_crossing_count(restricted)
        assert rep.total <= 4 * pp.degree_budget
        curves += 1
    return (f"max cell {ca.max_population()} <= {limit:.1f}; "
            f"{curves} lifted circles sound within Bezout bound {4 * pp.degree_budget}")


@report(8, "scaling: pencil slope 1.00+-0.05, grid slope 4/3+-0.05, bound ratios logged")
def test_scaling_harness():
    # pencil family
    pencil_series = []
    for i in range(5):
        n = 512 * 2 ** i
        inst, _ = gen(GenSpec("pencil", 1, n, seed=108))
        rep = count(inst.points, inst.curves, mode="prefilter")
        pencil_series.append((rep.m, rep.n, rep.total))
    slope_pencil, _, _ = exponent_fit(pencil_series)
    assert abs(slope_pencil - 1.0) <= 0.05

    # st-grid family, 5 doublings from m = n = 512
    grid_series = []
    ratios = []
    for i in range(5):
        target = 512 * 2 ** i
        inst, planted = gen(GenSpec("st-grid-horizontal-lines", target, target, seed=0))
        rep = count(inst.points, inst.curves, mode="prefilter", threads=8)
        assert rep.total == planted
        if rep.m <= 1000:  # exact double-loop cross-check at small sizes
            brute = count(inst.points, inst.curves, mode="exact")
            assert brute.total == planted
        grid_series.append((rep.m, rep.n, rep.total))
        ratios.append(("st-grid", rep.m, bound_ratio(rep)))
    slope_grid, _, _ = exponent_fit(grid_series)
    assert abs(slope_grid - 4 / 3) <= 0.05

    # tangency families up to m = n = 1e4 report bound_ratio (report-only)
    for kind, sizes in (("random-tangency", (1000, 5000, 10000)),
                        ("circle-sampled", (1000, 5000, 10000))):
        for size in sizes:
            inst, _ = gen(GenSpec(kind, size, size, seed=108))
            rep = count(inst.points, inst.curves, mode="prefilter", threads=8)
            ratios.append((kind, size, bound_ratio(rep)))
    for i in range(5):
        n = 512 * 2 ** i
        inst, _ = gen(GenSpec("pencil", 1, n, seed=108))
        rep = count(inst.points, inst.curves, mode="prefilter")
        ratios.append(("pencil", n, bound_ratio(rep)))
    worst = max(ratios, key=lambda r: r[2])
    assert all(r[2] >= 0 for r in ratios)
    return (f"pencil slope {slope_pencil:.3f}, grid slope {slope_grid:.3f}; "
            f"max bound_ratio constant {worst[2]:.3f} ({worst[0]} at {worst[1]})")


@report(9, "engine: modes identical at m=n=2000; 2e4 prefilter throughput logged")
def test_engine_modes_and_throughput():
    inst, _ = gen(GenSpec("random-tangency", 2000, 2000, seed=109))
    a = count(inst.points, inst.curves, mode="exact")
    b = count(inst.points, inst.curves, mode="prefilter")
    assert a.total == b.total
    assert a.per_point == b.per_point and a.per_curve == b.per_curve
    planted_inst, planted = gen(GenSpec("circle-sampled", 2000, 500, seed=109))
    pa = count(planted_inst.points, planted_inst.curves, mode="exact")
    pb = count(planted_inst.points, planted_inst.curves, mode="prefilter")
    assert pa.total == pb.total and pa.total >= planted
    assert pa.per_point == pb.per_point and pa.per_curve == pb.per_curve

    inst, _ = gen(GenSpec("random-tangency", 20000, 20000, seed=110))
    t0 = time.perf_counter()
    rep = count(inst.points, inst.curves, mode="prefilter", threads=8)
    elapsed = time.perf_counter() - t0
    return (f"modes identical (random total {a.total}, planted total {pa.total}); "
            f"m=n=2e4 prefilter in {elapsed:.1f}s on 8 threads (soft target 60s)")


@report(10, "resultant demo: eliminant is the height difference on the tested locus")
def test_resultant_demo():
    fstar = horizontal_line_Fstar()
    rng = random.Random(111)
    intersecting = 0
    while intersecting < 1000:
        a1, a2 = rr(rng, 10, 10), rr(rng, 10, 10)
        if a1 == a2:
            continue
        b1, b2, c = rr(rng, 10, 10), rr(rng, 10, 10), rr(rng, 10, 10)
        assert eval_Fstar(fstar, (a1, b1, c), (a2, b2, c)) == 0
        intersecting += 1
    disjoint = 0
    ratio_checked = 0
    while disjoint < 1000:
        a1, a2 = rr(rng, 10, 10), rr(rng, 10, 10)
        c1, c2 = rr(rng, 10, 10), rr(rng, 10, 10)
        if a1 == a2 or c1 == c2:
            continue
        b1, b2 = rr(rng, 10, 10), rr(rng, 10, 10)
        v = eval_Fstar(fstar, (a1, b1, c1), (a2, b2, c2))
        assert v != 0
        # proportional to the paper form p_z - q_z on the tested locus
        assert v / (c1 - c2) == Fraction(1) or v / (c1 - c2) == Fraction(-1)
        ratio_checked += 1
        disjoint += 1
    return f"{intersecting} intersecting pairs vanish; {disjoint} disjoint pairs nonzero, all proportional to c1 - c2"


ALL = [
    test_master_duality_equivalence,
    test_power_plane_correspondence,
    test_F_consistency,
    test_cubic_surface_vanishing,
    test_collinearity_consequence,
    test_anchored_structure,
    test_partition_contract,
    test_scaling_harness,
    test_engine_modes_and_throughput,
    test_resultant_demo,
]


if __name__ == "__main__":
    for t in ALL:
        t()
