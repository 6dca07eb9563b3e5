"""Anchored unit circles in 3-space, their dual parameterization, and lifts.

An anchored circle has radius 1 and passes through the origin, so its center
sits on the unit sphere about the origin.  Rational centers come from the
inverse stereographic map of rational (alpha, beta); the plane normal is a
primitive integer vector.  One rational (Cayley) rotation about an axis,
``_rotate``, samples both the center circles and the anchored circles.  Lifted
circles realize plane tangencies as space curves with the slope as third
coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .exact import RatLike, Vec2, Vec3, int_vec3, primitive_int_vec3, rand_tan_half, rat
from .polynomials import MPoly, RationalCurve, UniPoly, XYZ
from .tangency import Circle2, DirectedPoint


@dataclass(frozen=True)
class AnchoredCircle:
    """Unit circle through the origin: {x : |x-c|^2 = 1, n.x = 0}."""

    c: Vec3
    n: Vec3

    def __init__(self, c: Vec3, n: Vec3):
        if c.norm2() != 1:
            raise ValueError("center must lie on the unit sphere")
        n = primitive_int_vec3(n)
        if n.dot(c) != 0:
            raise ValueError("normal must be orthogonal to the center")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "n", n)

    def to_json(self) -> dict:
        return {"c": self.c.to_json(), "n": self.n.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "AnchoredCircle":
        return AnchoredCircle(Vec3.from_json(obj["c"]), Vec3.from_json(obj["n"]))


def int_anchored(g: AnchoredCircle) -> Tuple[int, ...]:
    n = g.n
    return (n.x.numerator, n.y.numerator, n.z.numerator) + int_vec3(g.c)


def pair_anchored(P: tuple, C: tuple) -> bool:
    """n.p = 0 and |p - c| = 1 on ``int_vec3`` and ``int_anchored`` tuples; w = d e (p - c)."""
    ax, ay, az, d = P
    nx, ny, nz, cx, cy, cz, e = C
    if nx * ax + ny * ay + nz * az != 0:
        return False
    wx, wy, wz, de = ax * e - cx * d, ay * e - cy * d, az * e - cz * d, d * e
    return wx * wx + wy * wy + wz * wz == de * de


def anchored_incident(p: Vec3, g: AnchoredCircle) -> bool:
    """True iff p lies on the anchored circle, exactly."""
    return pair_anchored(int_vec3(p), int_anchored(g))


def anchored_through_pair(p: Vec3, q: Vec3) -> Optional[AnchoredCircle]:
    """The unique anchored circle through p, q, and the origin, if one exists.

    Its center is the circumcenter of o, p and q, c = (|p|^2 q - |q|^2 p) x n
    / (2|n|^2) with n = p x q, and it exists iff |c|^2 = 1, an exact rational
    test.  Triples collinear with the origin (n = 0, which covers p or q at
    the origin and p = q) are rejected.
    """
    n = p.cross(q)
    if n.is_zero():
        raise ValueError("degenerate triple")
    c = (q.scale(p.norm2()) - p.scale(q.norm2())).cross(n).scale(Fraction(1) / (2 * n.norm2()))
    if c.norm2() != 1:
        return None
    return AnchoredCircle(c, n)


@dataclass(frozen=True)
class DualAnchoredParams:
    """Stereographic center chart plus a projective rotation parameter.

    phi is the ratio of the normal in the deterministic tangent basis
    e1 = c x (0,0,1) (x-axis fallback at the poles), e2 = c x e1; None
    encodes the infinite ratio.  south_chart flags projection from the
    south pole, used when the center is the north pole.
    """

    alpha: Fraction
    beta: Fraction
    phi: Optional[Fraction]
    south_chart: bool = False


def sphere_point(alpha: RatLike, beta: RatLike, south_chart: bool = False) -> Vec3:
    """Inverse stereographic image of (alpha, beta): a rational unit vector."""
    a, b = rat(alpha), rat(beta)
    s = a * a + b * b
    z = (s - 1) / (s + 1)
    pt = Vec3(2 * a / (s + 1), 2 * b / (s + 1), z if not south_chart else -z)
    return pt


def tangent_basis(c: Vec3) -> Tuple[Vec3, Vec3]:
    e1 = c.cross(Vec3(0, 0, 1))
    if e1.is_zero():
        e1 = c.cross(Vec3(1, 0, 0))
    return e1, c.cross(e1)


def dual_params(g: AnchoredCircle) -> DualAnchoredParams:
    c = g.c
    south = c == Vec3(0, 0, 1)
    if south:
        alpha = c.x / (1 + c.z)
        beta = c.y / (1 + c.z)
    else:
        alpha = c.x / (1 - c.z)
        beta = c.y / (1 - c.z)
    e1, e2 = tangent_basis(c)
    a = g.n.dot(e1) / e1.norm2()
    b = g.n.dot(e2) / e2.norm2()
    phi = None if b == 0 else a / b
    return DualAnchoredParams(alpha, beta, phi, south)


def circle_from_params(params: DualAnchoredParams) -> AnchoredCircle:
    c = sphere_point(params.alpha, params.beta, params.south_chart)
    e1, e2 = tangent_basis(c)
    if params.phi is None:
        n = e1
    else:
        n = e1.scale(params.phi) + e2
    return AnchoredCircle(c, n)


def _rotate(v: Vec3, a: Vec3, t: Fraction) -> Vec3:
    """Rational (Cayley, tan-half) rotation of v, orthogonal to a, about the
    axis a: ((1 - |a|^2 t^2) v + 2 t (a x v)) / (1 + |a|^2 t^2).  With
    v = V / dv, a = A / da and t = tn / td it is computed in integers over the
    one denominator (1 + |a|^2 t^2) dv (da td)^2 = dv (q + k)."""
    tn, td = t.numerator, t.denominator
    vx, vy, vz, dv = int_vec3(v)
    ax, ay, az, da = int_vec3(a)
    q = da * da * td * td
    k = (ax * ax + ay * ay + az * az) * tn * tn
    b = 2 * tn * td * da  # 2 t times (da td)^2 / da, the cross product's own denominator
    e = dv * (q + k)
    return Vec3(Fraction((q - k) * vx + b * (ay * vz - az * vy), e),
                Fraction((q - k) * vy + b * (az * vx - ax * vz), e),
                Fraction((q - k) * vz + b * (ax * vy - ay * vx), e))


def center_circle_point(p: Vec3, base_center: Vec3, t: RatLike) -> Vec3:
    """Rational point on {|c|^2 = 1, 2 c.p = |p|^2}: p/2 plus the witness's
    offset from p/2, which is orthogonal to p, rotated about p by t."""
    half = p.scale(Fraction(1, 2))
    return half + _rotate(base_center - half, p, rat(t))


def h_p_sample(p: Vec3, k: int, rng, base_center: Optional[Vec3] = None) -> List[AnchoredCircle]:
    """Sample k anchored circles through p.

    Needs a known rational point on the center circle (generators construct
    p so one exists), except on the boundary |p| = 2 where the center is
    forced to p/2 and only the rotation parameter varies.
    """
    if p.is_zero():
        raise ValueError("anchor point excluded")
    s = p.norm2()
    if s > 4:
        return []
    out: List[AnchoredCircle] = []
    if s == 4:
        c = p.scale(Fraction(1, 2))
        e1, e2 = tangent_basis(c)
        while len(out) < k:
            a = rand_tan_half(rng)
            b = rand_tan_half(rng)
            n = e1.scale(a) + e2.scale(b)
            if n.is_zero():
                continue
            out.append(AnchoredCircle(c, n))
        return out
    if base_center is None:
        raise ValueError("rational center witness required off the boundary")
    while len(out) < k:
        t = rand_tan_half(rng)
        c = center_circle_point(p, base_center, t)
        n = p.cross(c)
        if n.is_zero():
            continue
        out.append(AnchoredCircle(c, n))
    return out


def anchored_pair_intersections(g1: AnchoredCircle, g2: AnchoredCircle) -> List[Vec3]:
    """All common points of two distinct anchored circles, exactly.

    Distinct anchored circles share at most two points, one of which is the
    origin; the second, when present, is rational in the circle data.
    """
    if g1 == g2:
        raise ValueError("circles must be distinct")
    out = [Vec3(0, 0, 0)]
    # Common points lie on a line L through the origin: the meet n1 x n2 of
    # the planes when they differ; in one plane, |x-c1| = |x-c2| = 1 forces
    # x orthogonal to c2 - c1, so L = n1 x (c2 - c1).  L meets circle 1 again
    # at x = L 2(c1.L)/|L|^2, unless L is zero or touches it only at the origin.
    line = g1.n.cross(g2.n)
    if line.is_zero():
        line = g1.n.cross(g2.c - g1.c)
    t = 2 * g1.c.dot(line)
    if t != 0:
        x = line.scale(t / line.norm2())
        if anchored_incident(x, g1) and anchored_incident(x, g2):
            out.append(x)
    return out


def anchored_point(g: AnchoredCircle, t: RatLike) -> Vec3:
    """Rational point on the anchored circle, c - (c rotated about n by -t):
    the origin, which is c - c, turned in the circle's plane; t = 0 gives it."""
    return g.c - _rotate(g.c, g.n, -rat(t))


def anchored_point_sample(g: AnchoredCircle, rng) -> Vec3:
    """Random rational point on g, never the origin."""
    while True:
        t = rand_tan_half(rng)
        if t != 0:
            return anchored_point(g, t)


# ---------------------------------------------------------------------------
# Lifted circles: plane tangencies as space curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftedCircle:
    """Space curve of directed points tangent to the base circle (degree 4)."""

    base: Circle2


def lifted_contains(lc: LiftedCircle, pt: Vec3) -> bool:
    """Membership via both lift equations:
    (x-cx)^2 + (y-cy)^2 = r^2 and z (y-cy) = cx - x."""
    c = lc.base
    dx = pt.x - c.center.x
    dy = pt.y - c.center.y
    return dx * dx + dy * dy == c.r2 and pt.z * dy == -dx


def lifted_param(lc: LiftedCircle, base_point: Vec2) -> RationalCurve:
    """Rational parameterization of the lift through a known rational point.

    (x, y) is the tan-half rotation of base_point around the base circle and
    z = (cx - x)/(y - cy), all over w = (1 + s^2) z_den, whose real roots are
    the vertical tangencies.  Lowest terms hold since base_point is not the
    center: z_den and the z numerator share no root, and at s = +-i neither
    z_den nor the x numerator vanishes.
    """
    c = lc.base
    d = base_point - c.center
    if d.norm2() != c.r2:
        raise ValueError("base point not on circle")
    one = UniPoly.const(1)
    s = UniPoly.x()
    s2 = s * s
    den = one + s2
    x_num = UniPoly.const(c.center.x) * den + (one - s2).scale(d.x) - s.scale(2 * d.y)
    y_num = UniPoly.const(c.center.y) * den + s.scale(2 * d.x) + (one - s2).scale(d.y)
    z_num = s.scale(2 * d.y) - (one - s2).scale(d.x)
    z_den = s.scale(2 * d.x) + (one - s2).scale(d.y)
    return RationalCurve(x_num * z_den, y_num * z_den, z_num * den, den * z_den)


def lift_sample(lc: LiftedCircle, base_point: Vec2, rng) -> Vec3:
    """Random exact point of the lift as a (x, y, slope) triple."""
    from .tangency import tangent_point_sample

    a = tangent_point_sample(lc.base, base_point, rng)
    return Vec3(a.p.x, a.p.y, a.u)


def cubic_surface(dp0: DirectedPoint) -> MPoly:
    """Degree-3 surface swept by the lifts of all circles tangent to dp0:

    f(x,y,z) = (z + z0)((y-y0)^2 - (x-x0)^2) - 2(x-x0)(y-y0)(z*z0 - 1)
    with (x0, y0) = dp0.p and z0 = dp0.u.
    """
    x0, y0, z0 = dp0.p.x, dp0.p.y, dp0.u
    x = MPoly.var(XYZ, "x")
    y = MPoly.var(XYZ, "y")
    z = MPoly.var(XYZ, "z")
    cx = x - MPoly.const(XYZ, x0)
    cy = y - MPoly.const(XYZ, y0)
    cz = z + MPoly.const(XYZ, z0)
    zz0 = z.scale(z0) - MPoly.const(XYZ, 1)
    return cz * (cy * cy - cx * cx) - (cx * cy * zz0).scale(2)
