"""Cross-module invariant suite.

Every invariant promised by a module is a named check here; the CLI verify
subcommand runs them all and the test manifest asserts none is missing.
Checks take a seeded rng and a scale factor (1.0 runs the full advertised
trial counts; smaller scales are for smoke runs) and return their PASS
message.  A check fails in one way only: it raises CheckFailed with the
message for its FAIL line.  Any other exception is a crash, which run_suite
reports as a failure too.

The acceptance tests check several of the same invariants at their own
seeds and trial counts.  One trial of each such check is a module-level
kernel that both call: it draws from the rng, raises CheckFailed on a
failure, and returns SKIP when the draw is degenerate or otherwise a value
the caller counts.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, Iterable, List

import numpy as np

from . import anchored as anc
from . import dual3
from . import engine as eng
from . import generators as gens
from . import partition as part
from .exact import Vec2, Vec3, rand_tan_half
from .generators import _rand_circle, _rand_dp, rand_rat
from .polynomials import UniPoly, poly_gcd, restrict_to_curve, sturm_count
from .tangency import (
    Circle2,
    DirectedPoint,
    FStatus,
    VerticalTangent,
    _foot,
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


class CheckFailed(Exception):
    """A check or trial kernel found its invariant broken; the message says how."""


Check = Callable[[random.Random, float], str]  # returns the PASS message

CHECKS: Dict[str, Check] = {}


def check(name: str):
    def apply(fn: Check) -> Check:
        CHECKS[name] = fn
        return fn
    return apply


def _trials(base: int, scale: float, floor: int = 20) -> int:
    return max(floor, int(base * scale))


SKIP = None  # a kernel's result for a degenerate draw, which does not count


def run_trials(results: Iterable) -> list:
    """The kernel results that count: every one that is not SKIP."""
    return [result for result in results if result is not SKIP]


# --- exact-kernel -----------------------------------------------------------


@check("rational-exactness")
def _rational_exactness(rng, scale) -> str:
    for _ in range(_trials(10000, scale)):
        a, b = rand_rat(rng), rand_rat(rng)
        if (a + b) - b != a:
            raise CheckFailed(f"(a+b)-b != a for {a}, {b}")
        c = Fraction(a.numerator * 7, a.denominator * 7) if a != 0 else a
        if c != a or (c.numerator, c.denominator) != (a.numerator, a.denominator):
            raise CheckFailed(f"canonical form not unique for {a}")
    return "rational arithmetic exact, canonical forms unique"


@check("sturm-vs-numeric")
def _sturm_vs_numeric(rng, scale) -> str:
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
            raise CheckFailed(f"sturm {got} vs numeric {len(distinct)} on {p.coeffs}")
    return f"{trials} polynomials agreed ({skipped} numerically ambiguous skipped)"


@check("resultant-vs-gcd")
def _resultant_vs_gcd(rng, scale) -> str:
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
                raise CheckFailed(f"resultant/gcd mismatch at {sub}")
            done += 1
    return f"{done} specializations agreed with brute-force gcd"


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
        raise CheckFailed(f"F = {value} on a pair tangent to one circle: {a}, {b}")
    circle = common_circle(a, b)
    if status is FStatus.REGULAR and value == 0:
        if circle is None:
            # the only escape is a foot collapsing onto p or q
            w = _foot(a, b)
            if w != a.p and w != b.p:
                raise CheckFailed(f"missing circle for regular F=0 pair {a}, {b}")
        elif not (is_tangent(a, circle) and is_tangent(b, circle)):
            raise CheckFailed("returned circle fails tangency")
    elif circle is not None:
        raise CheckFailed("circle produced outside the regular F=0 branch")
    return circle is not None


@check("common-circle-characterization")
def _common_circle_char(rng, scale) -> str:
    trials = _trials(100000, scale)
    run_trials(common_circle_trial(rng, i >= trials // 2) for i in range(trials))
    return f"{trials} pairs characterized with zero failures"


@check("tangency-pair-uniqueness")
def _pair_uniqueness(rng, scale) -> str:
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
        denom = Vec2(-a.u, 1).dot(Vec2(1, b.u))
        if denom == 0:
            continue
        s = (b.p - a.p).dot(Vec2(1, b.u)) / denom
        if s != 0:
            cand = tangent_circle(a, s)
            if is_tangent(a, cand) and is_tangent(b, cand) and cand != got:
                raise CheckFailed(f"second common circle found for {a}, {b}")
    return "no coexisting second tangent circle found"


def engineered_triple_trial(rng):
    """Three directed points tangent to one random circle: when all three
    pairwise common circles exist (SKIP otherwise), each is that circle, so
    their centers coincide and are collinear."""
    c, base = _rand_circle(rng)
    dps = [tangent_point_sample(c, base, rng) for _ in range(3)]
    if len(set(dps)) < 3:
        return SKIP
    circles = [common_circle(a, b) for a, b in combinations(dps, 2)]
    if any(cc is None for cc in circles):
        return SKIP
    if any(cc != c for cc in circles):
        raise CheckFailed(f"common circles {circles} of one-circle triple {dps} are not its circle {c}")
    return True


def random_triple_trial(rng):
    """Three directed points on three mutually touching circles: a random a,
    members C1, C2 of its pencil, b on C1, the other member C3 of b's pencil
    that touches C2, and c where C2 and C3 touch (SKIP on a degenerate draw).
    Every circle tangent to a directed point is centred on its normal line,
    so two pencils share at most the circle centred where the normals meet:
    each pair's common circle is its planted one.  The three centres are the
    pairwise meets of three normals, which need not be collinear."""
    a = _rand_dp(rng)
    s1, s2 = rand_rat(rng), rand_rat(rng)
    if s1 == 0 or s2 == 0 or s1 == s2:
        return SKIP
    c1, c2 = tangent_circle(a, s1), tangent_circle(a, s2)
    b = tangent_point_sample(c1, a.p, rng)
    # b's member at sigma touches C2 iff (P + 2 k sigma)^2 = 4 sigma^2 (1 + v^2) R^2,
    # with P the power of b, k = (-v, 1).(b - centre) and R^2 = C2.r2; the
    # product of the roots is P^2 / lead, and C1 is one of them
    k = Vec2(-b.u, 1).dot(b.p - c2.center)
    lead = 4 * (k * k - (1 + b.u * b.u) * c2.r2)
    if b == a or lead == 0:
        return SKIP
    c3 = tangent_circle(b, power(b.p, c2) ** 2 / (lead * (c1.center.y - b.p.y)))
    d = c3.center - c2.center  # they touch where the radical line meets d
    try:
        c = tangent_at(c2, c2.center + d.scale((d.norm2() + c2.r2 - c3.r2) / (2 * d.norm2())))
    except VerticalTangent:
        return SKIP
    if len({a.u, b.u, c.u}) < 3:
        return SKIP  # antipodes on one circle: their normals coincide
    for (x, y), planted in zip(combinations((a, b, c), 2), (c1, c2, c3)):
        got = common_circle(x, y)
        if got != planted:
            raise CheckFailed(f"common circle {got} of {x}, {y} is not the planted {planted}")
    return True


@check("triple-collinearity")
def _triple_collinearity(rng, scale) -> str:
    run_trials(engineered_triple_trial(rng) for _ in range(_trials(10000, scale)))
    planted = run_trials(random_triple_trial(rng) for _ in range(_trials(100000, scale)))
    return (f"one-circle triples collinear; {len(planted)} three-circle triples "
            "gave their planted common circles")


@check("orthogonal-circle-power")
def _orthogonal_power(rng, scale) -> str:
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
            raise CheckFailed(f"orthogonal circle fails contracts for {a}, {w}, {rho}")
    return f"{produced} constructed circles satisfy tangency and power exactly"


# --- anchored-space ---------------------------------------------------------


def anchored_pair_trial(rng):
    """Two random anchored circles (SKIP when equal) share at most two
    points, the first the origin, and each lies on both."""
    g1, g2 = gens.rand_anchored_circle(rng), gens.rand_anchored_circle(rng)
    if g1 == g2:
        return SKIP
    pts = anc.anchored_pair_intersections(g1, g2)
    if not (1 <= len(pts) <= 2) or not pts[0].is_zero():
        raise CheckFailed(f"pair intersection bound violated: {len(pts)} points")
    if not all(anc.anchored_incident(x, g1) and anc.anchored_incident(x, g2) for x in pts):
        raise CheckFailed("intersection point fails incidence")
    return True


def through_pair_trial(rng, on_circle: bool, den: int):
    """Two points sampled on one random anchored circle, which must come back
    (two distinct points of it are never collinear with the origin), or two
    random points with |coordinates| <= 2 and denominators <= den (SKIP when
    collinear with the origin, the one input anchored_through_pair rejects):
    a circle returned through them holds both.  Any other exception fails
    the check.  Returns whether one was."""
    if on_circle:
        g = gens.rand_anchored_circle(rng)
        p, q = anc.anchored_point_sample(g, rng), anc.anchored_point_sample(g, rng)
    else:
        p, q = (Vec3(rand_rat(rng, 2, den), rand_rat(rng, 2, den), rand_rat(rng, 2, den)) for _ in range(2))
    if p.cross(q).is_zero():
        return SKIP
    got = anc.anchored_through_pair(p, q)
    if on_circle and got != g:
        raise CheckFailed(f"through-pair circle {got} is not the sampled {g}: {p}, {q}")
    if got is not None and not (anc.anchored_incident(p, got) and anc.anchored_incident(q, got)):
        raise CheckFailed(f"through-pair circle misses its points: {p}, {q}")
    return got is not None


@check("anchored-pair-bound")
def _anchored_pair_bound(rng, scale) -> str:
    run_trials(anchored_pair_trial(rng) for _ in range(_trials(10000, scale)))
    return "anchored circle pairs share at most 2 points, one the origin"


@check("anchored-dual-uniqueness")
def _anchored_dual_uniqueness(rng, scale) -> str:
    trials = _trials(10000, scale)
    returned = run_trials(through_pair_trial(rng, i % 2 == 1, 10) for i in range(trials))
    return f"at most one circle per pair; {sum(returned)} returned circles verified"


def cubic_trials(rng) -> Callable[[], object]:
    """Draws a random directed point and returns its trial: a random circle
    tangent at that point (SKIP on a zero offset), whose lift's 10 random
    samples all lie on the point's cubic surface.  Counts the evaluations."""
    dp0 = _rand_dp(rng)
    f = anc.cubic_surface(dp0)

    def trial():
        s = rand_rat(rng)
        if s == 0:
            return SKIP
        lc = anc.LiftedCircle(tangent_circle(dp0, s))
        for _ in range(10):
            pt = anc.lift_sample(lc, dp0.p, rng)
            if f.eval({"x": pt.x, "y": pt.y, "z": pt.z}) != 0:
                raise CheckFailed(f"cubic surface nonzero at lift sample {pt}")
        return 10
    return trial


@check("cubic-surface-vanishing")
def _cubic_vanishing(rng, scale) -> str:
    trial = cubic_trials(rng)
    circles = _trials(1000, scale, floor=10)
    run_trials(trial() for _ in range(circles))
    return f"cubic vanished on 10 lift samples per {circles} tangent circles"


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
    p0 = Vec2(Fraction(0), e / d.y) if d.y != 0 else Vec2(e / d.x, Fraction(0))
    dv = Vec2(d.y, -d.x)
    w = p0 - c1.center
    A = dv.norm2()
    B = 2 * w.dot(dv)
    C = w.norm2() - c1.r2
    disc = B * B - 4 * A * C
    points = 2 if disc > 0 else (1 if disc == 0 else 0)
    return points, (1 if disc == 0 else 0)


def _touching(c1: Circle2, c2: Circle2) -> bool:
    """The centre distance is r1 + r2 or |r1 - r2|, squared twice to stay rational."""
    return ((c1.center - c2.center).norm2() - c1.r2 - c2.r2) ** 2 == 4 * c1.r2 * c2.r2


@check("lifted-pair-bound")
def _lifted_pair_bound(rng, scale) -> str:
    # two distinct base circles share a directed point iff they touch in one
    # point: well under the almost-2-dof multiplicity bound of 2.  The
    # radical-line discriminant is the independent oracle; planted touching
    # pairs must score 1 and carry the shared directed point.
    for _ in range(_trials(3000, scale)):
        a = _rand_dp(rng, 20, 20)
        s1, s2 = rand_rat(rng, 10, 10), rand_rat(rng, 10, 10)
        if s1 == 0 or s2 == 0 or s1 == s2:
            continue
        c1, c2 = tangent_circle(a, s1), tangent_circle(a, s2)
        pts, shared = _radical_line_tangency(c1, c2)
        if (pts, shared) != (1, 1):
            raise CheckFailed("touching pair not recognized by radical-line oracle")
        if not (is_tangent(a, c1) and is_tangent(a, c2)):
            raise CheckFailed("planted pair misses the shared directed point")
        if not _touching(c1, c2):
            raise CheckFailed("tangency certificate disagrees with construction")
    for _ in range(_trials(3000, scale)):
        c1, _ = _rand_circle(rng)
        c2, _ = _rand_circle(rng)
        if c1 == c2:
            continue
        _, shared = _radical_line_tangency(c1, c2)
        if _touching(c1, c2) != (shared == 1):
            raise CheckFailed("certificate and radical-line oracle disagree")
    return "lifted circle pairs share at most one directed point (bound 2 holds)"


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
        raise CheckFailed(f"duality mismatch for {a}, {c}: {t1}, {t2}, {t3}")
    return True


def power_trial(rng):
    """A random circle lies on a random power plane iff its power with
    respect to the plane's circle matches; the plane survives a round trip."""
    c, _ = _rand_circle(rng)
    a, b, d = rand_rat(rng), rand_rat(rng), rand_rat(rng)
    pp = dual3.PowerPlane(a, b, d)
    if dual3.dual_on_plane(c, pp) != (power(pp.w, c) == pp.rho):
        raise CheckFailed(f"power decode mismatch for plane ({a},{b},{d})")
    if dual3.encode_power(pp.w, pp.rho) != pp:
        raise CheckFailed("plane encode/decode round trip failed")
    return True


@check("master-duality")
def _master_duality(rng, scale) -> str:
    trials = _trials(100000, scale)
    run_trials(duality_trial(rng, i % 3 == 0) for i in range(trials))
    return f"{trials} pairs: is_tangent == dual_incidence == lifted_contains"


@check("power-decoding")
def _power_decoding(rng, scale) -> str:
    run_trials(power_trial(rng) for _ in range(_trials(10000, scale)))
    return "dual-on-plane equivalent to power equality; round trip identity"


@check("line-in-plane-characterization")
def _line_in_plane_char(rng, scale) -> str:
    for _ in range(_trials(10000, scale)):
        a = _rand_dp(rng)
        pp = dual3.PowerPlane(rand_rat(rng), rand_rat(rng), rand_rat(rng))
        direct = dual3.line_in_plane(a, pp)
        if pp.rho > 0:
            w = pp.w
            geo = (a.p - w).norm2() == pp.rho and (w.y - a.p.y) == a.u * (w.x - a.p.x)
            if direct != geo:
                raise CheckFailed(f"line_in_plane disagrees with geometry for {a}")
        if direct:
            line = dual3.dp_dual_line(a)
            p0, dv = line.point0(), line.direction()
            for k in (-2, 0, 3):
                pt = p0 + dv.scale(k)
                if pp.eval_at(pt) != 0:
                    raise CheckFailed("contained line leaves the plane")
    return "direct containment matches the power-circle characterization"


@check("rich-planes-completeness")
def _rich_planes_completeness(rng, scale) -> str:
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
            raise CheckFailed(f"planted rich plane not found (k={k})")
        members = found[0][1]
        if set(members) < set(range(k)):
            raise CheckFailed("planted members missing from rich plane")
        for plane, ms in report:
            if isinstance(plane, dual3.PowerPlane):
                for i in ms:
                    if not dual3.line_in_plane(allpts[i], plane):
                        raise CheckFailed("false positive member in rich plane")
    return "planted rich planes recovered with exact membership"


# --- incidence-engine -------------------------------------------------------


def anchored_edges():
    """Points and two anchored circles: each circle gets a point on its
    sphere but off its plane ((1, 0, 1), (3/5, 4/5, 1)), one on its plane but
    off its sphere ((3, 0, 0), (9/5, 12/5, 0)) and points on it."""
    circles = [anc.AnchoredCircle(Vec3(1, 0, 0), Vec3(0, 0, 1)),
               anc.AnchoredCircle(Vec3(Fraction(3, 5), Fraction(4, 5), 0), Vec3(4, -3, 5))]
    points = [Vec3(1, 0, 1), Vec3(3, 0, 0), Vec3(1, 1, 0), Vec3(1, -1, 0),
              Vec3(Fraction(3, 5), Fraction(4, 5), 1), Vec3(Fraction(9, 5), Fraction(12, 5), 0),
              Vec3(Fraction(6, 5), Fraction(8, 5), 0)]
    return points, circles


@check("engine-mode-equivalence")
def _engine_modes(rng, scale) -> str:
    """Exact and prefilter reports agree on every kind.  The anchored input
    adds ``anchored_edges``, and every st-grid line has grid points at its
    height beside it: an exact kernel that skips one of its tests counts
    these, while the float screen still drops them."""
    size = max(60, int(2000 * scale))
    tangency, _ = gens.gen(gens.GenSpec("circle-sampled", size, max(10, size // 4), seed=rng.randrange(1 << 30)))
    anchored, _ = gens.gen(gens.GenSpec("anchored-planted", max(60, int(1500 * scale)), max(20, int(300 * scale)),
                                        seed=rng.randrange(1 << 30)))
    side = max(54, int(432 * scale))
    grid, _ = gens.gen(gens.GenSpec("st-grid-horizontal-lines", side, side))
    crafted, circles = anchored_edges()
    agreed = []
    for name, points, curves in (("tangency", tangency.points, tangency.curves),
                                 ("anchored", anchored.points + crafted, anchored.curves + circles),
                                 ("lines3", grid.points, grid.curves)):
        a = eng.count(points, curves, mode="exact")
        b = eng.count(points, curves, mode="prefilter")
        if (a.total, a.per_point, a.per_curve) != (b.total, b.per_point, b.per_curve):
            raise CheckFailed(f"exact and prefilter disagree on {name}")
        agreed.append(f"{name} m={len(points)} (total {a.total})")
    return "modes agree on " + ", ".join(agreed)


@check("engine-determinism")
def _engine_determinism(rng, scale) -> str:
    inst, _ = gens.gen(gens.GenSpec("circle-sampled", 150, 30, seed=rng.randrange(1 << 30)))
    reports = [
        eng.count(inst.points, inst.curves, mode="prefilter", threads=th, tile=7)
        for th in (1, 2, 8)
    ]
    reports.append(eng.count(inst.points, inst.curves, mode="prefilter", threads=8, tile=7))
    base = (reports[0].total, reports[0].per_point, reports[0].per_curve)
    for rep in reports[1:]:
        if (rep.total, rep.per_point, rep.per_curve) != base:
            raise CheckFailed("report varies with thread count or rerun")
    return "identical reports across thread counts and reruns"


@check("engine-histogram-consistency")
def _engine_histograms(rng, scale) -> str:
    for kind, m, n in (("circle-sampled", 80, 20), ("anchored-planted", 40, 30)):
        inst, _ = gens.gen(gens.GenSpec(kind, m, n, seed=rng.randrange(1 << 30)))
        rep = eng.count(inst.points, inst.curves)
        if rep.total != sum(rep.per_point) or rep.total != sum(rep.per_curve):
            raise CheckFailed(f"histogram inconsistency on {kind}")
    return "total equals both histogram sums on every report"


@check("engine-throughput")
def _engine_throughput(rng, scale) -> str:
    size = int(20000 * max(scale, 0.02))
    inst, _ = gens.gen(gens.GenSpec("random-tangency", size, size, seed=rng.randrange(1 << 30)))
    report = eng.count(inst.points, inst.curves, mode="prefilter", threads=8)
    # soft target: the check's own time is reported after the message, not asserted
    return f"m=n={size} prefilter count, {report.total} incidences (soft target 60s at 2e4)"


# --- partition --------------------------------------------------------------


def _partition_fixture(rng, scale):
    m = max(64, int(1024 * scale))
    levels = 3
    pts = [Vec3(rand_rat(rng, 50, 20), rand_rat(rng, 50, 20), rand_rat(rng, 50, 20)) for _ in range(m)]
    pp = part.build_partition(pts, levels, 0.15, seed=rng.randrange(1 << 30))
    return pts, pp, levels


@check("partition-balance")
def _partition_balance(rng, scale) -> str:
    pts, pp, levels = _partition_fixture(rng, scale)
    ca = part.classify(pts, pp)
    bound = (1 + 0.15) * len(pts) / 2 ** levels
    if ca.max_population() > bound:
        raise CheckFailed(f"cell population {ca.max_population()} exceeds {bound}")
    return f"max cell {ca.max_population()} within (1+eps) m/2^r = {bound:.1f}"


@check("partition-degree-accounting")
def _partition_degrees(rng, scale) -> str:
    pts, pp, levels = _partition_fixture(rng, scale)
    for j, d in enumerate(pp.level_degrees, start=1):
        want = part.least_lift_degree(2 ** (j - 1))
        if d > want:
            raise CheckFailed(f"level {j} degree {d} exceeds lift degree {want}")
    return f"level degrees {pp.level_degrees} follow the lift schedule"


def _horner(coeffs: List[float], samples: np.ndarray) -> np.ndarray:
    """Float values at every sample by Horner's rule, highest coefficient
    first and starting from 0: acc = acc * t + c, the same two roundings per
    step as a scalar float loop, so the same floats: inf and NaN arise
    exactly where they would for Python floats."""
    acc = np.zeros_like(samples)
    with np.errstate(over="ignore", invalid="ignore"):
        for c in coeffs:
            acc = acc * samples + c
    return acc


def numeric_crossing_count(poly: UniPoly) -> int:
    """Dense numeric sampling oracle with exact confirmation at sign changes.

    Samples a uniform grid over the root bound refined around the numeric
    root locations (so close roots are not skipped), guesses the sign at
    every sample in one float pass, then confirms the sign change of every
    bracket with exact rational evaluation (floats convert to Fractions
    exactly).  Counts distinct odd-multiplicity real roots.
    """
    from .polynomials import cauchy_root_bound

    bound = min(float(cauchy_root_bound(poly)) + 1, 1e9)
    samples = [float(t) for t in np.linspace(-bound, bound, 2001)]
    coeffs = [float(c) for c in reversed(poly.coeffs)]  # raises OverflowError past the float range
    roots = np.roots(coeffs) if len(coeffs) > 1 else []
    for r in roots:
        if abs(r.imag) < 1e-6 * max(1.0, abs(r)):
            width = max(1e-9, 1e-9 * abs(r.real))
            spread = 1e-3 * max(1.0, abs(r.real))
            samples.extend(float(t) for t in np.linspace(r.real - spread, r.real + spread, 81))
            samples.extend(float(t) for t in np.linspace(r.real - width, r.real + width, 9))
    samples = sorted(set(samples))
    acc = _horner(coeffs, np.array(samples))
    guesses = ((acc > 0).astype(np.int8) - (acc < 0)).tolist()  # NaN guesses 0, as a Python float would
    changes = 0
    v = poly.eval(Fraction(samples[0]))
    prev_sign = (v > 0) - (v < 0)
    for t, guess in zip(samples[1:], guesses[1:]):
        if guess != prev_sign:
            v = poly.eval(Fraction(t))  # exact confirmation
            sign = (v > 0) - (v < 0)
            if sign != 0 and prev_sign != 0 and sign != prev_sign:
                changes += 1
            if sign != 0:
                prev_sign = sign
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
            raise CheckFailed(f"sturm {rep.per_factor[fi]} vs sampling {changes}")
        if whole:
            product = product * restricted
    if rep.total > 4 * pp.degree_budget:  # lifted circles have degree 4
        raise CheckFailed(f"crossings {rep.total} exceed Bezout bound")
    if whole and rep.total != sturm_count(product):
        raise CheckFailed(f"total {rep.total} vs product Sturm {sturm_count(product)}")
    return True


@check("partition-crossing-soundness")
def _partition_crossings(rng, scale) -> str:
    pts, pp, _ = _partition_fixture(rng, scale)
    curves = _trials(30, scale, floor=8)
    run_trials(crossing_trial(rng, pp, 10, i < 2) for i in range(curves))
    return f"{curves} lifted circles: Sturm counts match dense sampling"


# --- generators -------------------------------------------------------------


@check("generator-seed-determinism")
def _gen_determinism(rng, scale) -> str:
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
            raise CheckFailed(f"{kind} not bit-identical under fixed seed")
    return "identical spec + seed produce bit-identical instances"


@check("generator-planted-soundness")
def _gen_planted(rng, scale) -> str:
    for kind, m, n in (
        ("pencil", 1, 30),
        ("circle-sampled", 40, 10),
        ("st-grid-horizontal-lines", 128, 128),
        ("anchored-planted", 30, 20),
    ):
        try:  # gen certifies every planted pair or raises
            gens.gen(gens.GenSpec(kind, m, n, seed=rng.randrange(1 << 30)))
        except ValueError as exc:
            raise CheckFailed(f"{kind}: {exc}") from None
    return "every planted incidence passes its exact predicate"


@check("st-grid-enumeration")
def _grid_enumeration(rng, scale) -> str:
    inst, planted = gens.gen(gens.GenSpec("st-grid-horizontal-lines", 432, 432, seed=0))
    total = eng.count(inst.points, inst.curves, mode="prefilter").total
    if total != planted:
        raise CheckFailed(f"grid enumeration {planted} vs engine {total}")
    return f"grid planted count {planted} equals engine enumeration"


# --- cli --------------------------------------------------------------------


@check("cli-reproducibility")
def _cli_reproducibility(rng, scale) -> str:
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
        raise CheckFailed("cli count returned nonzero")
    out1.pop("seconds", None)
    out2.pop("seconds", None)
    if out1 != out2:
        raise CheckFailed("cli output not reproducible modulo timing")
    return "subcommand output reproducible modulo the timing field"


def run_suite(quick: bool = False, seed: int = 20260810, log=print) -> bool:
    """Run every check; returns True when everything passed."""
    import zlib

    scale = 0.02 if quick else 1.0
    all_ok = True
    for name, fn in CHECKS.items():
        rng = random.Random(seed ^ zlib.crc32(name.encode()))
        t0 = time.perf_counter()
        try:
            ok, msg = True, fn(rng, scale)
        except CheckFailed as exc:
            ok, msg = False, str(exc)
        except Exception as exc:  # a crashing check is a failing check
            ok, msg = False, f"exception: {exc!r}"
        dt = time.perf_counter() - t0
        log(f"[{'PASS' if ok else 'FAIL'}] {name}: {msg} ({dt:.1f}s)")
        all_ok = all_ok and ok
    return all_ok
