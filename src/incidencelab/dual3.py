"""Duality to 3-space: circles to points, directed points to lines.

A circle with center (xi, eta) and radius r maps to (xi, eta, zeta) with
zeta = r^2 - xi^2 - eta^2; a directed point maps to a line cut out by one
non-vertical and one vertical plane.  Non-vertical planes decode to a power
point w = (a/2, b/2) with power rho = d + a^2/4 + b^2/4: a dual point lies
on the plane exactly when w has power rho with respect to the circle.

``pair_plane`` is the rich-plane kernel: on two ``int_dp`` tuples it finds
the non-vertical plane their dual lines span, with integer products only.
``line_in_plane`` stays a ``Fraction`` oracle that calls no kernel, as do
the tests' ``span_plane_3d`` (cross products in 3-space) and
``rich_planes_by_rescan``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple, Union

from .exact import RatLike, Vec2, Vec3, int_vec3, primitive3, primitive_int_vec3, rat, rat_to_str
from .tangency import Circle2, DirectedPoint, Line2, int_dp


def circle_dual(c: Circle2) -> Vec3:
    """The dual point (xi, eta, zeta) of c."""
    return Vec3(c.center.x, c.center.y, c.r2 - c.center.norm2())


@dataclass(frozen=True)
class Line3:
    """Line in 3-space in canonical form: primitive integer direction with
    fixed sign, base point at the foot of the perpendicular from the origin."""

    point: Vec3
    direction: Vec3

    def __init__(self, point: Vec3, direction: Vec3):
        self._canonical(*int_vec3(point), *int_vec3(direction)[:3])

    @classmethod
    def from_ints(cls, px: int, py: int, pz: int, d: int, vx: int, vy: int, vz: int) -> "Line3":
        """The line through (px, py, pz) / d along the nonzero (vx, vy, vz)."""
        line = cls.__new__(cls)
        line._canonical(px, py, pz, d, vx, vy, vz)
        return line

    def _canonical(self, px, py, pz, d, vx, vy, vz) -> None:
        # foot P - v (P.v) / |v|^2 = (P |v|^2 - v (P.v)) / (d |v|^2), P = (px, py, pz) / d
        vx, vy, vz = primitive3(vx, vy, vz)
        n2 = vx * vx + vy * vy + vz * vz
        s = px * vx + py * vy + pz * vz
        e = d * n2
        foot = Vec3(Fraction(px * n2 - vx * s, e), Fraction(py * n2 - vy * s, e), Fraction(pz * n2 - vz * s, e))
        object.__setattr__(self, "point", foot)
        object.__setattr__(self, "direction", Vec3(vx, vy, vz))

    def contains(self, x: Vec3) -> bool:
        return pair_lines3(int_vec3(x), int_line3(self))

    def to_json(self) -> dict:
        return {"q": self.point.to_json(), "d": self.direction.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "Line3":
        return Line3(Vec3.from_json(obj["q"]), Vec3.from_json(obj["d"]))


def int_line3(line: Line3) -> Tuple[int, ...]:
    v = line.direction
    return int_vec3(line.point) + (v.x.numerator, v.y.numerator, v.z.numerator)


def pair_lines3(P: tuple, C: tuple) -> bool:
    """(x - q) x v = 0 on ``int_vec3`` and ``int_line3`` tuples; w = d e (x - q)."""
    ax, ay, az, d = P
    qx, qy, qz, e, vx, vy, vz = C
    wx, wy, wz = ax * e - qx * d, ay * e - qy * d, az * e - qz * d
    return wy * vz == wz * vy and wz * vx == wx * vz and wx * vy == wy * vx


@dataclass(frozen=True)
class PowerPlane:
    """Non-vertical plane a*xi + b*eta + zeta + d = 0."""

    a: Fraction
    b: Fraction
    d: Fraction

    def __init__(self, a: RatLike, b: RatLike, d: RatLike):
        object.__setattr__(self, "a", rat(a))
        object.__setattr__(self, "b", rat(b))
        object.__setattr__(self, "d", rat(d))

    @property
    def w(self) -> Vec2:
        return Vec2(self.a / 2, self.b / 2)

    @property
    def rho(self) -> Fraction:
        return self.d + self.a * self.a / 4 + self.b * self.b / 4

    def eval_at(self, pt: Vec3) -> Fraction:
        return self.a * pt.x + self.b * pt.y + pt.z + self.d

    def to_json(self) -> dict:
        return {"a": rat_to_str(self.a), "b": rat_to_str(self.b), "d": rat_to_str(self.d)}


def encode_power(w: Vec2, rho: RatLike) -> PowerPlane:
    """Plane whose dual points are the circles with power rho at w."""
    rho = rat(rho)
    return PowerPlane(2 * w.x, 2 * w.y, rho - w.norm2())


def dual_on_plane(c: Circle2, pp: PowerPlane) -> bool:
    return pp.eval_at(circle_dual(c)) == 0


@dataclass(frozen=True)
class DualLine3:
    """Dual line of a directed point: intersection of the two planes
    zeta = -2 p1 xi - 2 p2 eta + (p1^2 + p2^2)  and
    (xi - p1) + u (eta - p2) = 0."""

    p: Vec2
    u: Fraction

    def __init__(self, p: Vec2, u: RatLike):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "u", rat(u))

    def nonvertical_plane(self) -> PowerPlane:
        return PowerPlane(2 * self.p.x, 2 * self.p.y, -self.p.norm2())

    def vertical_trace(self) -> Line2:
        """The xi-eta projection: the tangent-perpendicular line l_{p,u};
        its vertical plane is the only vertical plane containing the line."""
        return Line2(1, self.u, -(self.p.x + self.u * self.p.y))

    def point0(self) -> Vec3:
        return Vec3(self.p.x, self.p.y, -self.p.norm2())

    def direction(self) -> Vec3:
        return primitive_int_vec3(Vec3(-self.u, 1, 2 * self.p.x * self.u - 2 * self.p.y))

    def contains(self, pt: Vec3) -> bool:
        on_nv = self.nonvertical_plane().eval_at(pt) == 0
        on_v = (pt.x - self.p.x) + self.u * (pt.y - self.p.y) == 0
        return on_nv and on_v


def dp_dual_line(dp: DirectedPoint) -> DualLine3:
    return DualLine3(dp.p, dp.u)


def dual_incidence(dp: DirectedPoint, c: Circle2) -> bool:
    """Dual point of c on the dual line of dp; equals is_tangent(dp, c)."""
    return dp_dual_line(dp).contains(circle_dual(c))


def line_in_plane(dp: DirectedPoint, pp: PowerPlane) -> bool:
    """Containment of the dual line of dp in the power plane.

    Substituting the parametric line into the plane leaves a constant and a
    linear condition; for rho > 0 they say |p - w|^2 = rho and (w - p)
    parallel to (1, u).
    """
    p, u = dp.p, dp.u
    const_ok = pp.a * p.x + pp.b * p.y + pp.d == p.norm2()
    slope_ok = pp.a * u - pp.b == 2 * p.x * u - 2 * p.y
    return const_ok and slope_ok


PlaneKey = Union[PowerPlane, Line2]


def pair_plane(P: tuple, Q: tuple) -> Optional[Tuple[int, int, int, int]]:
    """The non-vertical plane spanning the dual lines of two ``int_dp`` tuples.

    Returns (A, B, D, g) with plane (a, b, d) = (A, B, D) / g, or None when no
    single non-vertical plane holds both lines.  Write the pair as (p, u) and
    (q, v).  By line_in_plane, the dual line of (p, u) lies in (a, b, d)
    exactly when b = u*a - c with c = 2(u*p.x - p.y), and
    a*p.x + b*p.y + d = |p|^2.  Different slopes fix a from the two b
    conditions.  Equal slopes need equal c (otherwise the lines are skew or
    share only a vertical plane), which makes them parallel, and
    k = (p.x - q.x) + u(p.y - q.y), nonzero unless the points are equal.  With
    b = u*a - c and d from the first point, the second point's conditions
    reduce to the constant one, a*k = |p|^2 - |q|^2 + c(p.y - q.y): it fixes a
    for equal slopes and is the only re-check for different slopes.

    Below, each rational is an integer over a power of the two tuples'
    denominators d1 and d2, as the comments say; the constant condition then
    reads a * k * d1 * d2 == r.
    """
    x1, y1, u1, d1 = P
    x2, y2, u2, d2 = Q
    s1, s2 = d1 * d1, d2 * d2
    c1 = u1 * x1 - y1 * d1  # c = 2 c1 / d1^2
    num = 2 * (c1 * s2 - (u2 * x2 - y2 * d2) * s1)  # c - c' = num / (d1^2 d2^2)
    e = u1 * d2 - u2 * d1  # u - v = e / (d1 d2)
    wx, wy = x1 * d2 - x2 * d1, y1 * d2 - y2 * d1  # p - q = (wx, wy) / (d1 d2)
    k = d1 * wx + u1 * wy  # the k above is k / (d1^2 d2)
    # the right side of the constant condition is r / (d1^3 d2^2)
    r = d1 * ((x1 * x1 + y1 * y1) * s2 - (x2 * x2 + y2 * y2) * s1) + 2 * d2 * c1 * wy
    if e:  # a = num / (d1 d2 e)
        if num * k != r * e:
            return None
        an, ad = num, d1 * d2 * e
    else:  # a = r / (k d1 d2)
        if num or not k:
            return None
        an, ad = r, k * d1 * d2
    bn = u1 * d1 * an - 2 * c1 * ad  # b = bn / (d1^2 ad)
    dn = (x1 * x1 + y1 * y1) * d1 * ad - an * x1 * s1 - bn * y1  # d = dn / (d1^3 ad)
    return an * d1 * s1, bn * d1, dn, d1 * s1 * ad


def _power_plane(plane: Tuple[int, int, int, int]) -> PowerPlane:
    a, b, d, g = plane
    return PowerPlane(Fraction(a, g), Fraction(b, g), Fraction(d, g))


def rich_planes(dps: List[DirectedPoint], q: int) -> List[Tuple[PlaneKey, List[int]]]:
    """All planes containing at least q of the dual lines of the input.

    Each dual line lies in exactly one vertical plane, keyed by its xi-eta
    trace.  Non-vertical planes are collected from spanning pairs alone: two
    distinct lines lie in at most one plane, so if lines i and j span P, any
    other line k in P differs from i or from j, and that pair spans P too and
    adds k.  Each point is cleared once and each pair runs ``pair_plane``;
    the ``PowerPlane`` key is built only for spanning pairs.  Equal directed
    points have equal dual lines and are not paired: their cleared tuples are
    equal, since ``clear_denominators`` uses the lcm.  Output is sorted by
    member count descending, ties broken by the canonical plane key.
    """
    if q < 2:
        raise ValueError("richness threshold must be at least 2")
    planes: Dict[PlaneKey, Set[int]] = {}
    for i, dp in enumerate(dps):
        planes.setdefault(dp_dual_line(dp).vertical_trace(), set()).add(i)
    cleared = [int_dp(dp) for dp in dps]
    for i, P in enumerate(cleared):
        for j in range(i + 1, len(cleared)):
            Q = cleared[j]
            if P == Q:
                continue
            plane = pair_plane(P, Q)
            if plane is not None:
                planes.setdefault(_power_plane(plane), set()).update((i, j))

    def sort_key(entry):
        plane, members = entry
        if isinstance(plane, PowerPlane):
            tag = (0, plane.a, plane.b, plane.d)
        else:
            tag = (1, plane.a, plane.b, plane.c)
        return (-len(members), tag)

    return sorted(((plane, sorted(members)) for plane, members in planes.items() if len(members) >= q),
                  key=sort_key)


def rich_planes_to_json(report: List[Tuple[PlaneKey, List[int]]]) -> list:
    out = []
    for plane, members in report:
        if isinstance(plane, PowerPlane):
            entry: dict = {"plane": plane.to_json()}
        else:
            entry = {"plane": {"vertical": [plane.a, plane.b, plane.c]}}
        entry["members"] = members
        entry["count"] = len(members)
        out.append(entry)
    return out
