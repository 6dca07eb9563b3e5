"""Exact configuration generators with certified planted incidences.

Every kind is deterministic in its seed, and every planted incidence is
re-checked with the engine's exact predicate before the instance ships;
``certify`` re-checks the planted pairs of a loaded instance the same way.
Random rationals are drawn as numerator/denominator pairs from configured
bounds.  Each object is built from the drawn integers: tests such as p != w
and derived values such as a squared radius run on them, and each coordinate
becomes a canonical Fraction once, which keeps bit growth under control
downstream.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Tuple

from .anchored import (
    AnchoredCircle,
    anchored_point_sample,
    h_p_sample,
    int_anchored,
    sphere_point,
    tangent_basis,
)
from .dual3 import Line3
from .engine import KINDS as ENGINE_KINDS
from .exact import Vec2, Vec3, int_vec3
from .polynomials import MPoly, resultant
from .tangency import Circle2, DirectedPoint, tangent_circle, tangent_point_sample


class InfeasibleSpecError(Exception):
    pass


@dataclass
class GenSpec:
    kind: str
    m: int
    n: int
    seed: int = 0
    coord_range: int = 100
    den_bound: int = 100
    z_levels: int = 1      # st-grid plane replication

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InfeasibleSpecError(f"unknown generator kind {self.kind!r}")
        if self.m < 0 or self.n < 0:
            raise InfeasibleSpecError("m and n must be nonnegative")
        if self.coord_range < 1 or self.den_bound < 1:
            raise InfeasibleSpecError("coord_range and den_bound must be at least 1")
        if self.z_levels < 1:
            raise InfeasibleSpecError("z_levels must be at least 1")


@dataclass
class Instance:
    kind: str  # engine kind: tangency | anchored | lines3
    points: list
    curves: list
    planted_pairs: List[Tuple[int, int]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "points": [p.to_json() for p in self.points],
            "curves": [c.to_json() for c in self.curves],
            "planted": len(self.planted_pairs),
            "planted_pairs": [list(t) for t in self.planted_pairs],
        }

    @staticmethod
    def from_json(obj: dict) -> "Instance":
        kind = _ENGINE_KIND.get(obj["kind"])
        if kind is None:
            raise ValueError(f"unknown instance kind {obj['kind']}")
        pts = [kind.point_type.from_json(o) for o in obj["points"]]
        cvs = [kind.curve_type.from_json(o) for o in obj["curves"]]
        pairs = [(i, j) for i, j in obj.get("planted_pairs", [])]
        planted = obj.get("planted", len(pairs))
        if type(planted) is not int or planted != len(pairs):
            raise ValueError(f"planted is {planted!r} but {len(pairs)} planted pairs are listed")
        return Instance(kind.name, pts, cvs, pairs)


def _rand_nd(rng: random.Random, mag: int, den: int) -> Tuple[int, int]:
    """A numerator and denominator drawn for a rational of size at most mag."""
    d = rng.randint(1, den)
    return rng.randint(-mag * d, mag * d), d


def rand_rat(rng: random.Random, mag: int = 100, den: int = 100) -> Fraction:
    return Fraction(*_rand_nd(rng, mag, den))


def _rand_dp(rng, mag=100, den=100) -> DirectedPoint:
    return DirectedPoint(Vec2(rand_rat(rng, mag, den), rand_rat(rng, mag, den)), rand_rat(rng, mag, den))


def _draw_circle(rng, mag: int, den: int) -> Tuple[Circle2, int, int, int, int]:
    """Random circle as r2 = |p - w|^2, with the point p = (px/pxd, py/pyd)
    as it was drawn.  The test p != w and r2 run on the drawn integers, with
    p - w = (ax/bx, ay/by); only w and r2 become Fractions."""
    while True:
        wx, wxd = _rand_nd(rng, mag, den)
        wy, wyd = _rand_nd(rng, mag, den)
        px, pxd = _rand_nd(rng, mag, den)
        py, pyd = _rand_nd(rng, mag, den)
        ax, bx = px * wxd - wx * pxd, pxd * wxd
        ay, by = py * wyd - wy * pyd, pyd * wyd
        if ax or ay:
            r2 = Fraction(ax * ax * by * by + ay * ay * bx * bx, bx * bx * by * by)
            return Circle2(Vec2(Fraction(wx, wxd), Fraction(wy, wyd)), r2), px, pxd, py, pyd


def _rand_circle(rng, mag=100, den=100) -> Tuple[Circle2, Vec2]:
    """Random circle as r2 = |p - w|^2 from a rational point, plus the point."""
    c, px, pxd, py, pyd = _draw_circle(rng, mag, den)
    return c, Vec2(Fraction(px, pxd), Fraction(py, pyd))


def rand_anchored_circle(rng) -> AnchoredCircle:
    while True:
        c = sphere_point(rand_rat(rng, 5, 8), rand_rat(rng, 5, 8))
        e1, e2 = tangent_basis(c)
        n = e1.scale(rand_rat(rng, 5, 8)) + e2.scale(rand_rat(rng, 5, 8))
        if not n.is_zero():
            return AnchoredCircle(c, n)


def certify(instance: Instance) -> int:
    """Re-check every planted pair with the engine's predicate; returns their
    number.  The pairs must be distinct and their indices ints, not bools."""
    kind, pairs = _ENGINE_KIND[instance.kind], instance.planted_pairs
    m, n = len(instance.points), len(instance.curves)
    for i, j in pairs:
        if type(i) is not int or type(j) is not int:
            raise ValueError(f"planted pair ({i}, {j}) is not two integers")
        if not (0 <= i < m and 0 <= j < n):
            raise ValueError(f"planted pair ({i}, {j}) is out of range for {m} points and {n} curves")
    if len(set(pairs)) < len(pairs):
        (i, j), _ = Counter(pairs).most_common(1)[0]
        raise ValueError(f"planted pair ({i}, {j}) is listed twice")
    ipts = {i: kind.int_point(instance.points[i]) for i in {i for i, _ in pairs}}
    icvs = {j: kind.int_curve(instance.curves[j]) for j in {j for _, j in pairs}}
    for i, j in pairs:
        if not kind.pair(ipts[i], icvs[j]):
            raise ValueError(f"planted pair ({i}, {j}) failed the exact re-check")
    return len(pairs)


def gen(spec: GenSpec) -> Tuple[Instance, int]:
    """Generate an instance; returns it with the certified planted count."""
    inst = GENERATORS[spec.kind](spec, random.Random(spec.seed))
    return inst, certify(inst)


def _gen_random_tangency(spec: GenSpec, rng) -> Instance:
    mag, den = spec.coord_range, spec.den_bound
    points = [_rand_dp(rng, mag, den) for _ in range(spec.m)]
    curves = [_draw_circle(rng, mag, den)[0] for _ in range(spec.n)]
    return Instance("tangency", points, curves)


def _gen_pencil(spec: GenSpec, rng) -> Instance:
    if spec.m != 1:
        raise InfeasibleSpecError("pencil supports exactly one directed point")
    mag, den = spec.coord_range, spec.den_bound
    if _offset_count(mag, den, spec.n) < spec.n:
        raise InfeasibleSpecError(
            f"pencil needs {spec.n} distinct offsets; coord_range {mag} and den_bound {den} allow fewer")
    dp = _rand_dp(rng, mag, den)
    seen = set()
    curves = []
    while len(curves) < spec.n:
        s = rand_rat(rng, mag, den)
        if s == 0 or s in seen:
            continue
        seen.add(s)
        curves.append(tangent_circle(dp, s))
    pairs = [(0, j) for j in range(spec.n)]
    return Instance("tangency", [dp], curves, pairs)


def _offset_count(mag: int, den: int, cap: int) -> int:
    """Distinct nonzero rationals s with |s| <= mag and denominator <= den,
    counted until the count reaches cap: in lowest terms p/q there are
    2 * mag * phi(q) of them for each q."""
    total = 0
    for q in range(1, den + 1):
        total += 2 * mag * sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1)
        if total >= cap:
            break
    return total


def _gen_circle_sampled(spec: GenSpec, rng) -> Instance:
    if spec.n == 0 and spec.m > 0:
        raise InfeasibleSpecError("circle-sampled needs at least one circle")
    mag, den = spec.coord_range, spec.den_bound
    curves, bases = [], []
    for _ in range(spec.n):
        c, p = _rand_circle(rng, mag, den)
        curves.append(c)
        bases.append(p)
    points, pairs = [], []
    for i in range(spec.m):
        j = i % spec.n
        points.append(tangent_point_sample(curves[j], bases[j], rng))
        pairs.append((i, j))
    return Instance("tangency", points, curves, pairs)


def st_grid_k(target: int, z_levels: int = 1) -> int:
    """Grid parameter giving m = n = 2k^3 per level closest to the target."""
    k = max(2, round((target / (2 * z_levels)) ** (1 / 3)))
    return k


def _gen_st_grid(spec: GenSpec, rng) -> Instance:
    # Integer grid {1..k} x {1..2k^2} with lines y = s x + t (s in 1..2k,
    # t in 1..k^2), the classical tight slope/intercept family, replicated
    # on z_levels horizontal planes; m = n = 2k^3 per level.
    k = st_grid_k(spec.m, spec.z_levels)
    points, curves, pairs = [], [], []
    point_index = {}
    for lvl in range(spec.z_levels):
        for i in range(1, k + 1):
            for j in range(1, 2 * k * k + 1):
                point_index[(i, j, lvl)] = len(points)
                points.append(Vec3(i, j, lvl))
    for lvl in range(spec.z_levels):
        for s in range(1, 2 * k + 1):
            for t in range(1, k * k + 1):
                line_idx = len(curves)
                curves.append(Line3(Vec3(0, t, lvl), Vec3(1, s, 0)))
                for i in range(1, k + 1):
                    j = s * i + t
                    if 1 <= j <= 2 * k * k:
                        pairs.append((point_index[(i, j, lvl)], line_idx))
    return Instance("lines3", points, curves, pairs)


def _rand_ball_point(rng, den) -> Vec3:
    while True:
        p = Vec3(rand_rat(rng, 2, den), rand_rat(rng, 2, den), rand_rat(rng, 2, den))
        if not p.is_zero() and p.norm2() <= 4:
            return p


def _gen_anchored_random(spec: GenSpec, rng) -> Instance:
    points = [_rand_ball_point(rng, spec.den_bound) for _ in range(spec.m)]
    curves = [rand_anchored_circle(rng) for _ in range(spec.n)]
    return Instance("anchored", points, curves)


def _gen_anchored_planted(spec: GenSpec, rng) -> Instance:
    """One hub point on every circle, then degree-1 fill: fresh samples on
    the circles, round-robin.  With m >= 1, planted = m + n - 1 exactly.

    Every circle is anchored (it passes through the origin) and comes from
    h_p_sample(hub, ...), so it passes through the hub as well.  Two distinct
    anchored circles meet in at most two points, here the origin and the hub,
    so no other point can lie on two circles and no degree-2 point exists.
    """
    if spec.n == 0 and spec.m > 0:
        raise InfeasibleSpecError("anchored-planted needs at least one circle")
    if spec.m == 0:
        return Instance("anchored", [], [rand_anchored_circle(rng) for _ in range(spec.n)])
    base = rand_anchored_circle(rng)
    hub = anchored_point_sample(base, rng)
    while hub.norm2() >= 4:
        hub = anchored_point_sample(base, rng)
    curves: List[AnchoredCircle] = []
    seen = set()  # cleared integer forms: canonical, and cheaper to hash than Fractions
    guard = 0
    while len(curves) < spec.n and guard < 50 * spec.n:
        guard += 1
        g = h_p_sample(hub, 1, rng, base_center=base.c)[0]
        key = int_anchored(g)
        if key in seen:
            continue
        seen.add(key)
        curves.append(g)
    if len(curves) < spec.n:
        raise InfeasibleSpecError("could not build enough distinct circles")
    points: List[Vec3] = [hub]
    pairs: List[Tuple[int, int]] = [(0, j) for j in range(spec.n)]
    existing = {int_vec3(hub)}
    j = 0
    while len(points) < spec.m:
        x = anchored_point_sample(curves[j % spec.n], rng)
        key = int_vec3(x)
        if key in existing:
            j += 1
            continue
        idx = len(points)
        points.append(x)
        existing.add(key)
        pairs.append((idx, j % spec.n))
        j += 1
    return Instance("anchored", points, curves, pairs)


GENERATORS = {
    "random-tangency": _gen_random_tangency,
    "pencil": _gen_pencil,
    "circle-sampled": _gen_circle_sampled,
    "st-grid-horizontal-lines": _gen_st_grid,
    "anchored-random": _gen_anchored_random,
    "anchored-planted": _gen_anchored_planted,
}
KINDS = tuple(GENERATORS)
_ENGINE_KIND = {kind.name: kind for kind in ENGINE_KINDS}  # Instance.kind -> engine Kind


# ---------------------------------------------------------------------------
# Horizontal-lines eliminant
# ---------------------------------------------------------------------------

FSTAR_RING = ("t1", "t2", "a1", "b1", "c1", "a2", "b2", "c2")


def horizontal_line_Fstar() -> MPoly:
    """Eliminant of the meeting conditions for two horizontal lines.

    Lines are parameterized as (x, y, z) = (t, a t + b, c).  Equating the
    coordinates of line 1 at t1 with line 2 at t2 and eliminating t2 then
    t1 by resultants leaves a polynomial in (a1, b1, c1, a2, b2, c2) whose
    zero set is {c1 = c2} away from the parallel-slope locus a1 = a2.
    """
    ring = FSTAR_RING
    t1 = MPoly.var(ring, "t1")
    t2 = MPoly.var(ring, "t2")
    a1, b1, c1 = (MPoly.var(ring, v) for v in ("a1", "b1", "c1"))
    a2, b2, c2 = (MPoly.var(ring, v) for v in ("a2", "b2", "c2"))
    eq_x = t1 - t2
    eq_y = a1 * t1 + b1 - a2 * t2 - b2
    eq_z = c1 - c2
    r1 = resultant(eq_x, eq_y, "t2")
    return resultant(r1, eq_z, "t1")


def eval_Fstar(fstar: MPoly, line1: Tuple[Fraction, Fraction, Fraction],
               line2: Tuple[Fraction, Fraction, Fraction]) -> Fraction:
    a1, b1, c1 = line1
    a2, b2, c2 = line2
    return fstar.eval({"t1": 0, "t2": 0, "a1": a1, "b1": b1, "c1": c1,
                       "a2": a2, "b2": b2, "c2": c2})
