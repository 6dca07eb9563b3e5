"""Exact predicates and constructors for directed points and circles.

A directed point is a plane point with a finite tangent slope; a circle is
stored with its squared radius so that every tangency equation stays
rational.  The circles tangent to a directed point (p, u) form its pencil:
``tangent_circle`` builds the member centred at p + s(-u, 1), and
``common_circle`` the one circle two pencils can share, centred where the
normals meet.  The pair polynomial F is the denominator-cleared
|pw|^2 - |qw|^2; its degenerate configurations (parallel or coincident
perpendiculars) are reported through an explicit status channel so that
degeneracy is never conflated with F = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Tuple

from .exact import RatLike, Vec2, clear_denominators, rand_tan_half, rat, rat_from_str, rat_to_str


class VerticalTangent(Exception):
    """Resample signal: the requested tangent direction is vertical."""


@dataclass(frozen=True)
class DirectedPoint:
    p: Vec2
    u: Fraction

    def __init__(self, p: Vec2, u: RatLike):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "u", rat(u))

    def to_json(self) -> dict:
        return {"p": self.p.to_json(), "u": rat_to_str(self.u)}

    @staticmethod
    def from_json(obj: dict) -> "DirectedPoint":
        return DirectedPoint(Vec2.from_json(obj["p"]), rat_from_str(obj["u"]))


@dataclass(frozen=True)
class Circle2:
    center: Vec2
    r2: Fraction

    def __init__(self, center: Vec2, r2: RatLike):
        r2 = rat(r2)
        if r2 <= 0:
            raise ValueError("circle needs positive squared radius")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "r2", r2)

    def to_json(self) -> dict:
        return {"c": self.center.to_json(), "r2": rat_to_str(self.r2)}

    @staticmethod
    def from_json(obj: dict) -> "Circle2":
        return Circle2(Vec2.from_json(obj["c"]), rat_from_str(obj["r2"]))


@dataclass(frozen=True)
class Line2:
    """Line A*x + B*y + C = 0, coprime integer coefficients, canonical sign."""

    a: int
    b: int
    c: int

    def __init__(self, a: RatLike, b: RatLike, c: RatLike):
        if a == 0 and b == 0:
            raise ValueError("degenerate line")
        na, nb, nc, _ = clear_denominators(a, b, c)
        g = math.gcd(na, nb, nc)
        na, nb, nc = na // g, nb // g, nc // g
        if na < 0 or (na == 0 and nb < 0):
            na, nb, nc = -na, -nb, -nc
        object.__setattr__(self, "a", na)
        object.__setattr__(self, "b", nb)
        object.__setattr__(self, "c", nc)

    @staticmethod
    def from_point_slope(p: Vec2, u: RatLike) -> "Line2":
        u = rat(u)
        return Line2(u, -1, p.y - u * p.x)

    def eval_at(self, pt: Vec2) -> Fraction:
        return self.a * pt.x + self.b * pt.y + self.c

    def contains(self, pt: Vec2) -> bool:
        return self.eval_at(pt) == 0


def int_dp(dp: DirectedPoint) -> Tuple[int, int, int, int]:
    return clear_denominators(dp.p.x, dp.p.y, dp.u)


def int_circle(c: Circle2) -> Tuple[int, int, int, int, int]:
    return clear_denominators(c.center.x, c.center.y) + (c.r2.numerator, c.r2.denominator)


def pair_tangency(P: tuple, C: tuple) -> bool:
    """Exact tangency of ``int_dp`` and ``int_circle`` tuples; w = d e (p - c)."""
    ax, ay, au, d = P
    bx, by, e, rn, rd = C
    wx, wy, de = ax * e - bx * d, ay * e - by * d, d * e
    return au * wy + d * wx == 0 and rd * (wx * wx + wy * wy) == rn * de * de


def is_tangent(dp: DirectedPoint, c: Circle2) -> bool:
    """True iff the circle passes through p with tangent slope u, exactly."""
    return pair_tangency(int_dp(dp), int_circle(c))


class FStatus(Enum):
    REGULAR = "regular"
    PARALLEL = "parallel-perpendiculars"
    COINCIDENT = "coincident-foot"


def _foot(dp1: DirectedPoint, dp2: DirectedPoint) -> Optional[Vec2]:
    """Meet w of the normals x + u y = p.x + u p.y through p and q; None when
    they are parallel (u = v)."""
    u, v = dp1.u, dp2.u
    if u == v:
        return None
    e1 = dp1.p.x + u * dp1.p.y
    y = (dp2.p.x + v * dp2.p.y - e1) / (v - u)
    return Vec2(e1 - u * y, y)


def eval_F(dp1: DirectedPoint, dp2: DirectedPoint) -> Tuple[Fraction, FStatus]:
    """Evaluate the pair polynomial F = (|pw|^2 - |qw|^2)(v - u), cleared.

    In regular status the value vanishes iff a common tangent circle exists.
    Parallel/coincident perpendiculars are flagged; the polynomial value is
    still returned (it vanishes identically on the coincident locus).
    """
    if dp1 == dp2:
        raise ValueError("identical directed points")
    p, u = dp1.p, dp1.u
    q, v = dp2.p, dp2.u
    # F, fully expanded so it is defined on the degenerate locus too.
    value = (
        2 * (v * (p.x + u * p.y) - u * (q.x + v * q.y)) * (q.x - p.x)
        + 2 * ((q.x + v * q.y) - (p.x + u * p.y)) * (q.y - p.y)
        + (v - u) * (p.norm2() - q.norm2())
    )
    if u == v:
        same_line = (q.x - p.x) + u * (q.y - p.y) == 0
        return value, FStatus.COINCIDENT if same_line else FStatus.PARALLEL
    return value, FStatus.REGULAR


def common_circle(dp1: DirectedPoint, dp2: DirectedPoint) -> Optional[Circle2]:
    """The unique circle tangent to both directed points, when it exists.

    Both pencils are centred on their normals, so it is centred at their
    meet w.  It exists iff the normals meet, |p - w| = |q - w| and w is
    neither base point: F's regular zero branch with the foot off p and q.
    """
    if dp1 == dp2:
        raise ValueError("identical directed points")
    w = _foot(dp1, dp2)
    if w is None or w == dp1.p or w == dp2.p:
        return None
    r2 = (dp1.p - w).norm2()
    if r2 != (dp2.p - w).norm2():
        return None
    return Circle2(w, r2)


def tangent_circle(dp: DirectedPoint, s: RatLike) -> Circle2:
    """The member of dp's pencil centred at p + s*(-u, 1): tangent to dp at p,
    with squared radius s^2 (1 + u^2).  s = 0 raises, as ``Circle2`` does."""
    s = rat(s)
    normal = Vec2(-dp.u, 1)
    return Circle2(dp.p + normal.scale(s), s * s * normal.norm2())


def power(w: Vec2, c: Circle2) -> Fraction:
    """Power of the point w with respect to c: |w - center|^2 - r^2."""
    return (w - c.center).norm2() - c.r2


def orthogonal_tangent_circle(dp: DirectedPoint, w: Vec2, rho: RatLike) -> Optional[Circle2]:
    """Circle tangent to dp at p whose power at w equals rho.

    The center rides the normal line p + s*(-u, 1); the prescribed power
    pins s = (|w-p|^2 - rho) / (2 (w-p).(-u, 1)).  A vanishing denominator
    with nonzero numerator is the cos(alpha) = 0 degeneracy: no circle.
    """
    rho = rat(rho)
    d = w - dp.p
    if d.norm2() == 0 and rho <= 0:
        raise ValueError("power point coincides with tangency point")
    denom = 2 * d.dot(Vec2(-dp.u, 1))
    numer = d.norm2() - rho
    if denom == 0:
        return None  # cos(alpha) = 0 when numer != 0; indeterminate when 0
    s = numer / denom
    return None if s == 0 else tangent_circle(dp, s)


def circles_tangent_to_line(dp: DirectedPoint, line: Line2) -> Tuple[int, List[Circle2]]:
    """Count circles tangent to dp at p and tangent to the line.

    Exact count from the quadratic in the signed normal parameter s:
    (A+uB)^2 s^2 - 2 L0 (B - Au) s - L0^2 = 0 with L0 the line evaluated
    at p.  Circles are materialized only when the roots are rational.
    """
    if line == Line2.from_point_slope(dp.p, dp.u):
        raise ValueError("coincident tangent lines")
    A, B = Fraction(line.a), Fraction(line.b)
    u = dp.u
    L0 = line.eval_at(dp.p)
    lead = (A + u * B) ** 2
    if L0 == 0:
        return 0, []
    if lead == 0:
        return 1, [tangent_circle(dp, L0 / (2 * (u * A - B)))]
    # Discriminant/4 = L0^2 (A^2+B^2)(1+u^2) > 0: always two real roots.
    disc = L0 * L0 * (A * A + B * B) * (1 + u * u)
    root = _rational_sqrt(disc)
    if root is None:
        return 2, []
    half_b = L0 * (B - A * u)
    return 2, [tangent_circle(dp, (half_b + sign * root) / lead) for sign in (1, -1)]


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def tangent_at(c: Circle2, p: Vec2) -> DirectedPoint:
    """Directed point tangent to c at the rational point p on c."""
    d = p - c.center
    if d.norm2() != c.r2:
        raise ValueError("point not on circle")
    if d.y == 0:
        raise VerticalTangent
    return DirectedPoint(p, -d.x / d.y)


def rotate_on_circle(c: Circle2, p: Vec2, t: RatLike) -> Vec2:
    """Rational rotation of the on-circle point p by tan-half parameter t."""
    t = rat(t)
    d = p - c.center
    den = 1 + t * t
    return c.center + Vec2(
        ((1 - t * t) * d.x - 2 * t * d.y) / den,
        (2 * t * d.x + (1 - t * t) * d.y) / den,
    )


def tangent_point_sample(c: Circle2, base: Vec2, rng) -> DirectedPoint:
    """Sample a directed point tangent to c by a random rational rotation of
    a known rational point on c; resamples internally on vertical tangents."""
    for _ in range(64):
        t = rand_tan_half(rng)
        p = rotate_on_circle(c, base, t)
        try:
            return tangent_at(c, p)
        except VerticalTangent:
            continue
    raise RuntimeError("could not sample a non-vertical tangent")
