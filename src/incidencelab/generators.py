"""Exact configuration generators with certified planted incidences.

Every kind is deterministic in its seed, and every planted incidence is
re-checked with the exact predicate before the instance ships.  Random
rationals are drawn as numerator/denominator pairs from configured bounds,
then canonicalized, which keeps bit growth under control downstream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Tuple

from .anchored import (
    AnchoredCircle,
    anchored_incident,
    anchored_point_sample,
    h_p_sample,
    sphere_point,
    tangent_basis,
)
from .dual3 import Line3
from .engine import KINDS as ENGINE_KINDS
from .exact import Vec2, Vec3
from .polynomials import MPoly, resultant
from .tangency import Circle2, DirectedPoint, is_tangent, tangent_point_sample


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

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "m": self.m,
            "n": self.n,
            "seed": self.seed,
            "coord_range": self.coord_range,
            "den_bound": self.den_bound,
            "z_levels": self.z_levels,
        }

    @staticmethod
    def from_json(obj: dict) -> "GenSpec":
        return GenSpec(**{k: obj[k] for k in obj})


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
        kind = next((k for k in ENGINE_KINDS if k.name == obj["kind"]), None)
        if kind is None:
            raise ValueError(f"unknown instance kind {obj['kind']}")
        pts = [kind.point_type.from_json(o) for o in obj["points"]]
        cvs = [kind.curve_type.from_json(o) for o in obj["curves"]]
        pairs = [tuple(t) for t in obj.get("planted_pairs", [])]
        return Instance(kind.name, pts, cvs, pairs)


def rand_rat(rng: random.Random, mag: int = 100, den: int = 100) -> Fraction:
    d = rng.randint(1, den)
    return Fraction(rng.randint(-mag * d, mag * d), d)


def _rand_dp(rng, mag=100, den=100) -> DirectedPoint:
    return DirectedPoint(Vec2(rand_rat(rng, mag, den), rand_rat(rng, mag, den)), rand_rat(rng, mag, den))


def _rand_circle(rng, mag=100, den=100) -> Tuple[Circle2, Vec2]:
    """Random circle as r2 = |p - w|^2 from a rational point, plus the point."""
    while True:
        w = Vec2(rand_rat(rng, mag, den), rand_rat(rng, mag, den))
        p = Vec2(rand_rat(rng, mag, den), rand_rat(rng, mag, den))
        if p != w:
            return Circle2(w, (p - w).norm2()), p


def rand_anchored_circle(rng, mag=5, den=8) -> AnchoredCircle:
    while True:
        c = sphere_point(rand_rat(rng, mag, den), rand_rat(rng, mag, den))
        e1, e2 = tangent_basis(c)
        n = e1.scale(rand_rat(rng, mag, den)) + e2.scale(rand_rat(rng, mag, den))
        if not n.is_zero():
            return AnchoredCircle(c, n)


def _certify(instance: Instance) -> int:
    """Re-run the exact predicate on every planted pair; raises on failure."""
    if instance.kind == "tangency":
        pred = lambda i, j: is_tangent(instance.points[i], instance.curves[j])
    elif instance.kind == "anchored":
        pred = lambda i, j: anchored_incident(instance.points[i], instance.curves[j])
    else:
        pred = lambda i, j: instance.curves[j].contains(instance.points[i])
    for i, j in instance.planted_pairs:
        if not pred(i, j):
            raise AssertionError(f"planted pair ({i},{j}) failed exact re-check")
    return len(instance.planted_pairs)


def gen(spec: GenSpec) -> Tuple[Instance, int]:
    """Generate an instance; returns it with the certified planted count."""
    inst = GENERATORS[spec.kind](spec, random.Random(spec.seed))
    return inst, _certify(inst)


def _gen_random_tangency(spec: GenSpec, rng) -> Instance:
    mag, den = spec.coord_range, spec.den_bound
    points = [_rand_dp(rng, mag, den) for _ in range(spec.m)]
    curves = [_rand_circle(rng, mag, den)[0] for _ in range(spec.n)]
    return Instance("tangency", points, curves)


def _gen_pencil(spec: GenSpec, rng) -> Instance:
    if spec.m != 1:
        raise InfeasibleSpecError("pencil supports exactly one directed point")
    mag, den = spec.coord_range, spec.den_bound
    if _offset_count(mag, den, spec.n) < spec.n:
        raise InfeasibleSpecError(
            f"pencil needs {spec.n} distinct offsets; coord_range {mag} and den_bound {den} allow fewer")
    dp = _rand_dp(rng, mag, den)
    normal = Vec2(-dp.u, 1)
    seen = set()
    curves = []
    while len(curves) < spec.n:
        s = rand_rat(rng, mag, den)
        if s == 0 or s in seen:
            continue
        seen.add(s)
        curves.append(Circle2(dp.p + normal.scale(s), s * s * normal.norm2()))
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
    seen = set()
    guard = 0
    while len(curves) < spec.n and guard < 50 * spec.n:
        guard += 1
        g = h_p_sample(hub, 1, rng, base_center=base.c)[0]
        key = (g.c, g.n)
        if key in seen:
            continue
        seen.add(key)
        curves.append(g)
    if len(curves) < spec.n:
        raise InfeasibleSpecError("could not build enough distinct circles")
    points: List[Vec3] = [hub]
    pairs: List[Tuple[int, int]] = [(0, j) for j in range(spec.n)]
    existing = {hub}
    j = 0
    while len(points) < spec.m:
        x = anchored_point_sample(curves[j % spec.n], rng)
        if x in existing:
            j += 1
            continue
        idx = len(points)
        points.append(x)
        existing.add(x)
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
