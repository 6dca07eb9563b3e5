"""Cross-module invariant suite.

Every invariant promised by a module is a named check here; the CLI verify
subcommand runs them all and the test manifest asserts none is missing.
Checks take a seeded rng and a scale factor (1.0 runs the full advertised
trial counts; smaller scales are for smoke runs) and return (ok, message).

The acceptance tests check several of the same invariants at their own
seeds and trial counts.  One trial of each such check is a module-level
kernel that both call: it draws from the rng and returns a failure message
(a str), SKIP when the draw is degenerate, or a value the caller counts.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import anchored as anc
from . import dual3
from . import engine as eng
from . import generators as gens
from . import partition as part
from .exact import Vec2, Vec3, det3, rand_tan_half
from .generators import _rand_circle, _rand_dp, rand_rat
from .polynomials import UniPoly, poly_gcd, restrict_to_curve, sturm_count
from .tangency import (
    Circle2,
    DirectedPoint,
    FStatus,
    _foot,
    common_circle,
    eval_F,
    is_tangent,
    orthogonal_tangent_circle,
    power,
    tangent_point_sample,
)

CheckResult = Tuple[bool, str]
Check = Callable[[random.Random, float], CheckResult]

CHECKS: Dict[str, Check] = {}


def check(name: str):
    def apply(fn: Check) -> Check:
        CHECKS[name] = fn
        return fn
    return apply


def _trials(base: int, scale: float, floor: int = 20) -> int:
    return max(floor, int(base * scale))


SKIP = None  # a kernel's result for a degenerate draw, which does not count


def run_trials(results: Iterable) -> Tuple[Optional[str], list]:
    """Consume kernel results up to the first failure message; returns that
    message (None when every trial passed) and the results that count."""
    counted = []
    for result in results:
        if isinstance(result, str):
            return result, counted
        if result is not SKIP:
            counted.append(result)
    return None, counted


def _verdict(failure: Optional[str], message: str) -> CheckResult:
    return (False, failure) if failure else (True, message)


# --- exact-kernel -----------------------------------------------------------


@check("rational-exactness")
def _rational_exactness(rng, scale) -> CheckResult:
    for _ in range(_trials(10000, scale)):
        a, b = rand_rat(rng), rand_rat(rng)
        if (a + b) - b != a:
            return False, f"(a+b)-b != a for {a}, {b}"
        c = Fraction(a.numerator * 7, a.denominator * 7) if a != 0 else a
        if c != a or (c.numerator, c.denominator) != (a.numerator, a.denominator):
            return False, f"canonical form not unique for {a}"
    return True, "rational arithmetic exact, canonical forms unique"


@check("sturm-vs-numeric")
def _sturm_vs_numeric(rng, scale) -> CheckResult:
    trials = _trials(10000, scale)
    skipped = 0
    for _ in range(trials):
        deg = rng.randint(1, 12)
        coeffs = [rng.randint(-100, 100) for _ in range(deg + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        p = UniPoly(coeffs)
        got = sturm_count(p, None, None)
        roots = np.roots(list(reversed([float(c) for c in p.coeffs])))
        real = sorted(r.real for r in roots if abs(r.imag) <= 1e-7 * max(1.0, abs(r)))
        distinct: List[float] = []
        ambiguous = False
        for r in real:
            if distinct and abs(r - distinct[-1]) < 1e-6 * max(1.0, abs(r)):
                ambiguous = True
            if not distinct or abs(r - distinct[-1]) > 1e-7 * max(1.0, abs(r)):
                distinct.append(r)
        if ambiguous:
            skipped += 1
            continue
        if got != len(distinct):
            return False, f"sturm {got} vs numeric {len(distinct)} on {p.coeffs}"
    return True, f"{trials} polynomials agreed ({skipped} numerically ambiguous skipped)"


@check("resultant-vs-gcd")
def _resultant_vs_gcd(rng, scale) -> CheckResult:
    from .polynomials import MPoly, resultant

    ring = ("t", "a", "b")
    t = MPoly.var(ring, "t")
    a = MPoly.var(ring, "a")
    b = MPoly.var(ring, "b")
    done = 0
    target = _trials(1000, scale)
    while done < target:
        def rnd_poly():
            out = MPoly.zero(ring)
            for i in range(rng.randint(1, 3) + 1):
                pick = rng.randrange(4)
                coef = (MPoly.const(ring, rng.randint(-3, 3)), a, b, a * b)[pick]
                out = out + coef * t.pow(i)
            return out

        p, q = rnd_poly(), rnd_poly()
        if p.degree_in("t") < 1 or q.degree_in("t") < 1:
            continue
        r = resultant(p, q, "t")
        for _ in range(25):
            sub = {"a": Fraction(rng.randint(-6, 6)), "b": Fraction(rng.randint(-6, 6))}
            pl = p.coeffs_in("t")[-1].substitute(sub)
            ql = q.coeffs_in("t")[-1].substitute(sub)
            if pl.is_zero() or ql.is_zero():
                continue  # leading-coefficient caveat
            ps = UniPoly([c.substitute(sub).constant_value() for c in p.coeffs_in("t")])
            qs = UniPoly([c.substitute(sub).constant_value() for c in q.coeffs_in("t")])
            g = poly_gcd(ps, qs)
            rv = r.substitute(sub).constant_value() if not r.is_zero() else Fraction(0)
            if (rv == 0) != (g.degree() >= 1):
                return False, f"resultant/gcd mismatch at {sub}"
            done += 1
    return True, f"{done} specializations agreed with brute-force gcd"


# --- plane-tangency ---------------------------------------------------------


def common_circle_trial(rng, on_circle: bool):
    """Two random directed points, or two tangent to one random circle (F
    must then vanish, whatever its status): a common circle exists exactly
    on the regular F = 0 branch and touches both.  Returns whether one did."""
    if on_circle:
        c, base = _rand_circle(rng)
        a, b = tangent_point_sample(c, base, rng), tangent_point_sample(c, base, rng)
    else:
        a, b = _rand_dp(rng), _rand_dp(rng)
    if a == b:
        return SKIP
    value, status = eval_F(a, b)
    if on_circle and value != 0:
        return f"F = {value} on a pair tangent to one circle: {a}, {b}"
    circle = common_circle(a, b)
    if status is FStatus.REGULAR and value == 0:
        if circle is None:
            # the only escape is a foot collapsing onto p or q
            w = _foot(a, b)
            if w != a.p and w != b.p:
                return f"missing circle for regular F=0 pair {a}, {b}"
        elif not (is_tangent(a, circle) and is_tangent(b, circle)):
            return "returned circle fails tangency"
    elif circle is not None:
        return "circle produced outside the regular F=0 branch"
    return circle is not None


@check("common-circle-characterization")
def _common_circle_char(rng, scale) -> CheckResult:
    trials = _trials(100000, scale)
    failure, _ = run_trials(common_circle_trial(rng, i >= trials // 2) for i in range(trials))
    return _verdict(failure, f"{trials} pairs characterized with zero failures")


@check("tangency-pair-uniqueness")
def _pair_uniqueness(rng, scale) -> CheckResult:
    # tangent circles to a ride the normal line; tangency to b is linear in
    # the parameter, so solving it searches all candidate second circles
    for _ in range(_trials(2000, scale)):
        c, base = _rand_circle(rng)
        a = tangent_point_sample(c, base, rng)
        b = tangent_point_sample(c, base, rng)
        if a == b:
            continue
        got = common_circle(a, b)
        if got is None:
            continue
        normal = Vec2(-a.u, 1)
        denom = normal.dot(Vec2(1, b.u))
        if denom == 0:
            continue
        s = (b.p - a.p).dot(Vec2(1, b.u)) / denom
        r2 = s * s * normal.norm2()
        if r2 > 0:
            cand = Circle2(a.p + normal.scale(s), r2)
            if is_tangent(a, cand) and is_tangent(b, cand) and cand != got:
                return False, f"second common circle found for {a}, {b}"
    return True, "no coexisting second tangent circle found"


def _centers_collinear(circles: List[Circle2]) -> bool:
    return det3(*(Vec3(c.center.x, c.center.y, 1) for c in circles)) == 0


def engineered_triple_trial(rng):
    """Three directed points tangent to one random circle: when all three
    pairwise common circles exist (SKIP otherwise), their centers coincide,
    so they are collinear."""
    c, base = _rand_circle(rng)
    dps = [tangent_point_sample(c, base, rng) for _ in range(3)]
    if len(set(dps)) < 3:
        return SKIP
    circles = [common_circle(a, b) for a, b in combinations(dps, 2)]
    if any(cc is None for cc in circles):
        return SKIP
    if not _centers_collinear(circles):
        return f"non-collinear centers from one-circle triple {dps}"
    return True


def random_triple_trial(rng):
    """Three random directed points: when every pair has F = 0 on the regular
    branch (SKIP otherwise), the three common circles' centers are collinear."""
    dps = [_rand_dp(rng) for _ in range(3)]
    if len(set(dps)) < 3:
        return SKIP
    for a, b in combinations(dps, 2):
        value, status = eval_F(a, b)
        if status is not FStatus.REGULAR or value != 0:
            return SKIP
    if not _centers_collinear([common_circle(a, b) for a, b in combinations(dps, 2)]):
        return f"non-collinear centers from random triple {dps}"
    return True


@check("triple-collinearity")
def _triple_collinearity(rng, scale) -> CheckResult:
    failure, _ = run_trials(engineered_triple_trial(rng) for _ in range(_trials(10000, scale)))
    if failure:
        return False, failure
    found = sum(isinstance(random_triple_trial(rng), str) for _ in range(_trials(100000, scale)))
    if found:
        return False, f"{found} non-collinear counterexamples found in random search"
    return True, "one-circle triples collinear; random search found no counterexample"


@check("orthogonal-circle-power")
def _orthogonal_power(rng, scale) -> CheckResult:
    produced = 0
    for _ in range(_trials(5000, scale)):
        a = _rand_dp(rng)
        w = Vec2(rand_rat(rng), rand_rat(rng))
        rho = rand_rat(rng)
        if w == a.p and rho <= 0:
            continue
        c = orthogonal_tangent_circle(a, w, rho)
        if c is None:
            continue
        produced += 1
        if not is_tangent(a, c) or power(w, c) != rho:
            return False, f"orthogonal circle fails contracts for {a}, {w}, {rho}"
    return True, f"{produced} constructed circles satisfy tangency and power exactly"


# --- anchored-space ---------------------------------------------------------


def anchored_pair_trial(rng):
    """Two random anchored circles (SKIP when equal) share at most two
    points, the first the origin, and each lies on both."""
    g1, g2 = gens.rand_anchored_circle(rng), gens.rand_anchored_circle(rng)
    if g1 == g2:
        return SKIP
    pts = anc.anchored_pair_intersections(g1, g2)
    if not (1 <= len(pts) <= 2) or not pts[0].is_zero():
        return f"pair intersection bound violated: {len(pts)} points"
    if not all(anc.anchored_incident(x, g1) and anc.anchored_incident(x, g2) for x in pts):
        return "intersection point fails incidence"
    return True


def through_pair_trial(rng, on_circle: bool, den: int):
    """Two points sampled on one random anchored circle, or two random points
    with |coordinates| <= 2 and denominators <= den (SKIP when rejected): a
    circle returned through them holds both.  Returns whether one was."""
    if on_circle:
        g = gens.rand_anchored_circle(rng)
        p, q = anc.anchored_point_sample(g, rng), anc.anchored_point_sample(g, rng)
    else:
        p, q = (Vec3(rand_rat(rng, 2, den), rand_rat(rng, 2, den), rand_rat(rng, 2, den)) for _ in range(2))
    try:
        got = anc.anchored_through_pair(p, q)
    except ValueError:
        return SKIP
    if got is not None and not (anc.anchored_incident(p, got) and anc.anchored_incident(q, got)):
        return f"through-pair circle misses its points: {p}, {q}"
    return got is not None


@check("anchored-pair-bound")
def _anchored_pair_bound(rng, scale) -> CheckResult:
    failure, _ = run_trials(anchored_pair_trial(rng) for _ in range(_trials(10000, scale)))
    return _verdict(failure, "anchored circle pairs share at most 2 points, one the origin")


@check("anchored-dual-uniqueness")
def _anchored_dual_uniqueness(rng, scale) -> CheckResult:
    trials = _trials(10000, scale)
    failure, returned = run_trials(through_pair_trial(rng, i % 2 == 1, 10) for i in range(trials))
    return _verdict(failure, f"at most one circle per pair; {sum(returned)} returned circles verified")


@check("lift-tangency-equivalence")
def _lift_equivalence(rng, scale) -> CheckResult:
    for _ in range(_trials(20000, scale)):
        c, _ = _rand_circle(rng)
        a = _rand_dp(rng)
        lifted = anc.lifted_contains(anc.LiftedCircle(c), Vec3(a.p.x, a.p.y, a.u))
        if lifted != is_tangent(a, c):
            return False, f"lift/tangency mismatch for {a}, {c}"
    return True, "lifted_contains equivalent to is_tangent on all trials"


def cubic_trials(rng) -> Callable[[], object]:
    """Draws a random directed point and returns its trial: a random circle
    tangent at that point (SKIP on a zero offset), whose lift's 10 random
    samples all lie on the point's cubic surface.  Counts the evaluations."""
    dp0 = _rand_dp(rng)
    f = anc.cubic_surface(dp0)
    normal = Vec2(-dp0.u, 1)

    def trial():
        s = rand_rat(rng)
        if s == 0:
            return SKIP
        lc = anc.LiftedCircle(Circle2(dp0.p + normal.scale(s), s * s * normal.norm2()))
        for _ in range(10):
            pt = anc.lift_sample(lc, dp0.p, rng)
            if f.eval({"x": pt.x, "y": pt.y, "z": pt.z}) != 0:
                return f"cubic surface nonzero at lift sample {pt}"
        return 10
    return trial


@check("cubic-surface-vanishing")
def _cubic_vanishing(rng, scale) -> CheckResult:
    trial = cubic_trials(rng)
    circles = _trials(1000, scale, floor=10)
    failure, _ = run_trials(trial() for _ in range(circles))
    return _verdict(failure, f"cubic vanished on 10 lift samples per {circles} tangent circles")


def _radical_line_tangency(c1: Circle2, c2: Circle2):
    """Independent circle-pair intersection count via the radical line.

    Returns (#intersection points in {0,1,2}, shared tangent directed points
    in {0,1}): distinct circles share a directed point iff they touch in
    exactly one point (equal tangent line there), never two.
    """
    d = (c2.center - c1.center).scale(2)
    e = (c2.center.norm2() - c2.r2) - (c1.center.norm2() - c1.r2)
    # parameterize the radical line d.x = e and substitute into circle 1
    if d.x == 0 and d.y == 0:
        return 0, 0  # concentric distinct circles
    if d.y != 0:
        p0 = Vec2(Fraction(0), e / d.y)
        dv = Vec2(d.y, -d.x)
    else:
        p0 = Vec2(e / d.x, Fraction(0))
        dv = Vec2(d.y, -d.x)
    w = p0 - c1.center
    A = dv.norm2()
    B = 2 * w.dot(dv)
    C = w.norm2() - c1.r2
    disc = B * B - 4 * A * C
    points = 2 if disc > 0 else (1 if disc == 0 else 0)
    return points, (1 if disc == 0 else 0)


@check("lifted-pair-bound")
def _lifted_pair_bound(rng, scale) -> CheckResult:
    # two distinct base circles share a directed point iff they touch in one
    # point: well under the almost-2-dof multiplicity bound of 2.  The
    # radical-line discriminant is the independent oracle; planted touching
    # pairs must score 1 and carry the shared directed point.
    for _ in range(_trials(3000, scale)):
        a = _rand_dp(rng, 20, 20)
        normal = Vec2(-a.u, 1)
        s1, s2 = rand_rat(rng, 10, 10), rand_rat(rng, 10, 10)
        if s1 == 0 or s2 == 0 or s1 == s2:
            continue
        c1 = Circle2(a.p + normal.scale(s1), s1 * s1 * normal.norm2())
        c2 = Circle2(a.p + normal.scale(s2), s2 * s2 * normal.norm2())
        pts, shared = _radical_line_tangency(c1, c2)
        if (pts, shared) != (1, 1):
            return False, "touching pair not recognized by radical-line oracle"
        if not (is_tangent(a, c1) and is_tangent(a, c2)):
            return False, "planted pair misses the shared directed point"
        cert = ((c1.center - c2.center).norm2() - c1.r2 - c2.r2) ** 2 == 4 * c1.r2 * c2.r2
        if not cert:
            return False, "tangency certificate disagrees with construction"
    for _ in range(_trials(3000, scale)):
        c1, _ = _rand_circle(rng)
        c2, _ = _rand_circle(rng)
        if c1 == c2:
            continue
        pts, shared = _radical_line_tangency(c1, c2)
        cert = ((c1.center - c2.center).norm2() - c1.r2 - c2.r2) ** 2 == 4 * c1.r2 * c2.r2
        if cert != (shared == 1):
            return False, "certificate and radical-line oracle disagree"
        if shared > 1 or pts > 2:
            return False, "pair bound violated"
    return True, "lifted circle pairs share at most one directed point (bound 2 holds)"


# --- dual3 ------------------------------------------------------------------


def duality_trial(rng, incident: bool):
    """A random circle and a random directed point, tangent to it when
    incident: is_tangent, dual_incidence and lifted_contains agree."""
    c, base = _rand_circle(rng)
    a = tangent_point_sample(c, base, rng) if incident else _rand_dp(rng)
    t1 = is_tangent(a, c)
    t2 = dual3.dual_incidence(a, c)
    t3 = anc.lifted_contains(anc.LiftedCircle(c), Vec3(a.p.x, a.p.y, a.u))
    if not (t1 == t2 == t3):
        return f"duality mismatch for {a}, {c}: {t1}, {t2}, {t3}"
    return True


def power_trial(rng):
    """A random circle lies on a random power plane iff its power with
    respect to the plane's circle matches; the plane survives a round trip."""
    c, _ = _rand_circle(rng)
    a, b, d = rand_rat(rng), rand_rat(rng), rand_rat(rng)
    pp = dual3.PowerPlane(a, b, d)
    if dual3.dual_on_plane(c, pp) != (power(pp.w, c) == pp.rho):
        return f"power decode mismatch for plane ({a},{b},{d})"
    if dual3.encode_power(pp.w, pp.rho) != pp:
        return "plane encode/decode round trip failed"
    return True


@check("master-duality")
def _master_duality(rng, scale) -> CheckResult:
    trials = _trials(100000, scale)
    failure, _ = run_trials(duality_trial(rng, i % 3 == 0) for i in range(trials))
    return _verdict(failure, f"{trials} pairs: is_tangent == dual_incidence == lifted_contains")


@check("power-decoding")
def _power_decoding(rng, scale) -> CheckResult:
    failure, _ = run_trials(power_trial(rng) for _ in range(_trials(10000, scale)))
    return _verdict(failure, "dual-on-plane equivalent to power equality; round trip identity")


@check("line-in-plane-characterization")
def _line_in_plane_char(rng, scale) -> CheckResult:
    for _ in range(_trials(10000, scale)):
        a = _rand_dp(rng)
        pp = dual3.PowerPlane(rand_rat(rng), rand_rat(rng), rand_rat(rng))
        direct = dual3.line_in_plane(a, pp)
        if pp.rho > 0:
            w = pp.w
            geo = (a.p - w).norm2() == pp.rho and (w.y - a.p.y) == a.u * (w.x - a.p.x)
            if direct != geo:
                return False, f"line_in_plane disagrees with geometry for {a}"
        if direct:
            line = dual3.dp_dual_line(a)
            p0, dv = line.point0(), line.direction()
            for k in (-2, 0, 3):
                pt = p0 + dv.scale(k)
                if pp.eval_at(pt) != 0:
                    return False, "contained line leaves the plane"
    return True, "direct containment matches the power-circle characterization"


@check("rich-planes-completeness")
def _rich_planes_completeness(rng, scale) -> CheckResult:
    from .tangency import rotate_on_circle

    for _ in range(_trials(40, scale, floor=5)):
        # plant a rich plane: k directed points on a power circle around w,
        # each directed at w (radial), so their dual lines share the plane
        w = Vec2(rand_rat(rng, 5, 5), rand_rat(rng, 5, 5))
        k = rng.randint(3, 6)
        p0 = Vec2(rand_rat(rng, 5, 5), rand_rat(rng, 5, 5))
        if p0 == w:
            continue
        circle = Circle2(w, (p0 - w).norm2())
        pts: List[DirectedPoint] = []
        guard = 0
        while len(pts) < k and guard < 300:
            guard += 1
            t = rand_tan_half(rng)
            p = rotate_on_circle(circle, p0, t)
            if p.x == w.x:  # radial direction would be vertical
                continue
            u = (p.y - w.y) / (p.x - w.x)
            cand = DirectedPoint(p, u)
            if all(cand != e for e in pts):
                pts.append(cand)
        if len(pts) < k:
            continue
        noise = [_rand_dp(rng, 5, 5) for _ in range(4)]
        allpts = pts + noise
        report = dual3.rich_planes(allpts, k)
        expected = dual3.encode_power(w, circle.r2)
        found = [entry for entry in report if entry[0] == expected]
        if not found:
            return False, f"planted rich plane not found (k={k})"
        members = found[0][1]
        if set(members) < set(range(k)):
            return False, "planted members missing from rich plane"
        for plane, ms in report:
            if isinstance(plane, dual3.PowerPlane):
                for i in ms:
                    if not dual3.line_in_plane(allpts[i], plane):
                        return False, "false positive member in rich plane"
    return True, "planted rich planes recovered with exact membership"


# --- incidence-engine -------------------------------------------------------


@check("engine-mode-equivalence")
def _engine_modes(rng, scale) -> CheckResult:
    size = max(60, int(2000 * scale))
    inst, _ = gens.gen(gens.GenSpec("circle-sampled", size, max(10, size // 4), seed=rng.randrange(1 << 30)))
    a = eng.count(inst.points, inst.curves, mode="exact")
    b = eng.count(inst.points, inst.curves, mode="prefilter")
    if (a.total, a.per_point, a.per_curve) != (b.total, b.per_point, b.per_curve):
        return False, "exact and prefilter disagree"
    return True, f"modes agree at m={size} (total {a.total})"


@check("engine-determinism")
def _engine_determinism(rng, scale) -> CheckResult:
    inst, _ = gens.gen(gens.GenSpec("circle-sampled", 150, 30, seed=rng.randrange(1 << 30)))
    reports = [
        eng.count(inst.points, inst.curves, mode="prefilter", threads=th, tile=64)
        for th in (1, 2, 8)
    ]
    reports.append(eng.count(inst.points, inst.curves, mode="prefilter", threads=8, tile=64))
    base = (reports[0].total, reports[0].per_point, reports[0].per_curve)
    for rep in reports[1:]:
        if (rep.total, rep.per_point, rep.per_curve) != base:
            return False, "report varies with thread count or rerun"
    return True, "identical reports across thread counts and reruns"


@check("engine-histogram-consistency")
def _engine_histograms(rng, scale) -> CheckResult:
    for kind, m, n in (("circle-sampled", 80, 20), ("anchored-planted", 40, 30)):
        inst, _ = gens.gen(gens.GenSpec(kind, m, n, seed=rng.randrange(1 << 30)))
        rep = eng.count(inst.points, inst.curves)
        if rep.total != sum(rep.per_point) or rep.total != sum(rep.per_curve):
            return False, f"histogram inconsistency on {kind}"
    return True, "total equals both histogram sums on every report"


@check("engine-throughput")
def _engine_throughput(rng, scale) -> CheckResult:
    size = int(20000 * max(scale, 0.02))
    inst, _ = gens.gen(gens.GenSpec("random-tangency", size, size, seed=rng.randrange(1 << 30)))
    t0 = time.perf_counter()
    eng.count(inst.points, inst.curves, mode="prefilter", threads=8)
    dt = time.perf_counter() - t0
    # soft target: reported, not asserted
    return True, f"m=n={size} prefilter count in {dt:.1f}s (soft target 60s at 2e4)"


# --- partition --------------------------------------------------------------


def _partition_fixture(rng, scale):
    m = max(64, int(1024 * scale))
    levels = 3 if m >= 64 else 2
    pts = [Vec3(rand_rat(rng, 50, 20), rand_rat(rng, 50, 20), rand_rat(rng, 50, 20)) for _ in range(m)]
    pp = part.build_partition(pts, levels, 0.15, seed=rng.randrange(1 << 30))
    return pts, pp, levels


@check("partition-balance")
def _partition_balance(rng, scale) -> CheckResult:
    pts, pp, levels = _partition_fixture(rng, scale)
    ca = part.classify(pts, pp)
    bound = (1 + 0.15) * len(pts) / 2 ** levels
    if ca.max_population() > bound:
        return False, f"cell population {ca.max_population()} exceeds {bound}"
    return True, f"max cell {ca.max_population()} within (1+eps) m/2^r = {bound:.1f}"


@check("partition-degree-accounting")
def _partition_degrees(rng, scale) -> CheckResult:
    pts, pp, levels = _partition_fixture(rng, scale)
    for j, d in enumerate(pp.level_degrees, start=1):
        want = part.least_lift_degree(2 ** (j - 1))
        if d > want:
            return False, f"level {j} degree {d} exceeds lift degree {want}"
    if pp.degree_budget != sum(pp.level_degrees):
        return False, "degree budget mismatch"
    return True, f"level degrees {pp.level_degrees} follow the lift schedule"


def numeric_crossing_count(poly: UniPoly) -> int:
    """Dense numeric sampling oracle with exact confirmation at sign changes.

    Samples a uniform grid over the root bound refined around the numeric
    root locations (so close roots are not skipped), then confirms the sign
    change of every bracket with exact rational evaluation (floats convert
    to Fractions exactly).  Counts distinct odd-multiplicity real roots.
    """
    from .polynomials import cauchy_root_bound

    bound = min(float(cauchy_root_bound(poly)) + 1, 1e9)
    samples = [float(t) for t in np.linspace(-bound, bound, 2001)]
    coeffs = list(reversed([float(c) for c in poly.coeffs]))
    roots = np.roots(coeffs) if len(coeffs) > 1 else []
    for r in roots:
        if abs(r.imag) < 1e-6 * max(1.0, abs(r)):
            width = max(1e-9, 1e-9 * abs(r.real))
            spread = 1e-3 * max(1.0, abs(r.real))
            samples.extend(float(t) for t in np.linspace(r.real - spread, r.real + spread, 81))
            samples.extend(float(t) for t in np.linspace(r.real - width, r.real + width, 9))
    samples = sorted(set(samples))
    changes = 0
    prev_t = samples[0]
    prev_sign = 0
    v = poly.eval(Fraction(prev_t))
    prev_sign = (v > 0) - (v < 0)
    for t in samples[1:]:
        fv = poly.eval_float(t)
        guess = (fv > 0) - (fv < 0)
        if guess != prev_sign:
            v = poly.eval(Fraction(t))  # exact confirmation
            sign = (v > 0) - (v < 0)
            if sign != 0 and prev_sign != 0 and sign != prev_sign:
                changes += 1
            if sign != 0:
                prev_sign = sign
        prev_t = t
    return changes


def crossing_trial(rng, pp: part.PartitionPoly, bound: int, whole: bool):
    """A random lifted circle (numerators and denominators bounded by bound)
    through curve_crossings: each factor's Sturm count matches dense
    sampling, the total stays within the Bezout bound and, when whole, it
    matches Sturm on the product of the restrictions."""
    c, base = _rand_circle(rng, bound, bound)
    curve = anc.lifted_param(anc.LiftedCircle(c), base)
    rep = part.curve_crossings(curve, pp)
    product = UniPoly.const(1)
    for fi, f in enumerate(pp.factors):
        restricted = restrict_to_curve(f, curve)
        if restricted.is_zero():
            continue
        changes = numeric_crossing_count(restricted)
        if rep.per_factor[fi] != changes:
            return f"sturm {rep.per_factor[fi]} vs sampling {changes}"
        if whole:
            product = product * restricted
    if rep.total > 4 * pp.degree_budget:  # lifted circles have degree 4
        return f"crossings {rep.total} exceed Bezout bound"
    if whole and rep.total != sturm_count(product):
        return f"total {rep.total} vs product Sturm {sturm_count(product)}"
    return True


@check("partition-crossing-soundness")
def _partition_crossings(rng, scale) -> CheckResult:
    pts, pp, _ = _partition_fixture(rng, scale)
    curves = _trials(30, scale, floor=8)
    failure, _ = run_trials(crossing_trial(rng, pp, 10, i < 2) for i in range(curves))
    return _verdict(failure, f"{curves} lifted circles: Sturm counts match dense sampling")


@check("partition-bezout-bound")
def _partition_bezout(rng, scale) -> CheckResult:
    pts, pp, _ = _partition_fixture(rng, scale)
    for _ in range(_trials(30, scale, floor=8)):
        c, base = _rand_circle(rng, 10, 10)
        curve = anc.lifted_param(anc.LiftedCircle(c), base)
        rep = part.curve_crossings(curve, pp)
        if rep.total > 4 * pp.degree_budget:  # lifted circles have degree 4
            return False, f"crossings {rep.total} exceed Bezout bound"
    return True, f"crossings within 4 * total degree = {4 * pp.degree_budget}"


# --- generators -------------------------------------------------------------


@check("generator-seed-determinism")
def _gen_determinism(rng, scale) -> CheckResult:
    for kind, m, n in (
        ("random-tangency", 20, 20),
        ("pencil", 1, 15),
        ("circle-sampled", 20, 5),
        ("st-grid-horizontal-lines", 54, 54),
        ("anchored-random", 10, 10),
        ("anchored-planted", 12, 10),
    ):
        seed = rng.randrange(1 << 30)
        a, _ = gens.gen(gens.GenSpec(kind, m, n, seed=seed))
        b, _ = gens.gen(gens.GenSpec(kind, m, n, seed=seed))
        if a.to_json() != b.to_json():
            return False, f"{kind} not bit-identical under fixed seed"
    return True, "identical spec + seed produce bit-identical instances"


@check("generator-planted-soundness")
def _gen_planted(rng, scale) -> CheckResult:
    for kind, m, n in (
        ("pencil", 1, 30),
        ("circle-sampled", 40, 10),
        ("st-grid-horizontal-lines", 128, 128),
        ("anchored-planted", 30, 20),
    ):
        inst, planted = gens.gen(gens.GenSpec(kind, m, n, seed=rng.randrange(1 << 30)))
        if planted != len(inst.planted_pairs):
            return False, f"{kind}: planted count not certified"
    return True, "every planted incidence passes its exact predicate"


@check("st-grid-enumeration")
def _grid_enumeration(rng, scale) -> CheckResult:
    inst, planted = gens.gen(gens.GenSpec("st-grid-horizontal-lines", 432, 432, seed=0))
    total = eng.count(inst.points, inst.curves, mode="prefilter").total
    if total != planted:
        return False, f"grid enumeration {planted} vs engine {total}"
    return True, f"grid planted count {planted} equals engine enumeration"


# --- cli --------------------------------------------------------------------


@check("cli-reproducibility")
def _cli_reproducibility(rng, scale) -> CheckResult:
    import io
    import json
    from . import cli

    def run():
        buf = io.StringIO()
        code = cli.main(
            ["count", "--kind", "pencil", "--m", "1", "--n", "12", "--seed", "5",
             "--format", "json"],
            stdout=buf,
        )
        return code, json.loads(buf.getvalue())

    code1, out1 = run()
    code2, out2 = run()
    if code1 != 0 or code2 != 0:
        return False, "cli count returned nonzero"
    out1.pop("seconds", None)
    out2.pop("seconds", None)
    if out1 != out2:
        return False, "cli output not reproducible modulo timing"
    return True, "subcommand output reproducible modulo the timing field"


def run_suite(quick: bool = False, seed: int = 20260810, names=None,
              log=print) -> bool:
    """Run checks (all by default); returns True when everything passed."""
    import zlib

    scale = 0.02 if quick else 1.0
    selected = CHECKS if names is None else {k: CHECKS[k] for k in names}
    all_ok = True
    for name, fn in selected.items():
        rng = random.Random(seed ^ zlib.crc32(name.encode()))
        t0 = time.perf_counter()
        try:
            ok, msg = fn(rng, scale)
        except Exception as exc:  # a crashing check is a failing check
            ok, msg = False, f"exception: {exc!r}"
        dt = time.perf_counter() - t0
        log(f"[{'PASS' if ok else 'FAIL'}] {name}: {msg} ({dt:.1f}s)")
        all_ok = all_ok and ok
    return all_ok
