"""Duality to 3-space: circles to points, directed points to lines.

A circle with center (xi, eta) and radius r maps to (xi, eta, zeta) with
zeta = r^2 - xi^2 - eta^2; a directed point maps to a line cut out by one
non-vertical and one vertical plane.  Non-vertical planes decode to a power
point w = (a/2, b/2) with power rho = d + a^2/4 + b^2/4: a dual point lies
on the plane exactly when w has power rho with respect to the circle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple, Union

from .exact import RatLike, Vec2, Vec3, primitive_int_vec3, rat, rat_from_str, rat_to_str
from .tangency import Circle2, DirectedPoint, Line2


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
        direction = primitive_int_vec3(direction)
        t = point.dot(direction) / direction.norm2()
        foot = point - direction.scale(t)
        object.__setattr__(self, "point", foot)
        object.__setattr__(self, "direction", direction)

    def contains(self, x: Vec3) -> bool:
        return (x - self.point).cross(self.direction).is_zero()

    def to_json(self) -> dict:
        return {"q": self.point.to_json(), "d": self.direction.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "Line3":
        return Line3(Vec3.from_json(obj["q"]), Vec3.from_json(obj["d"]))


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

    @staticmethod
    def from_json(obj: dict) -> "PowerPlane":
        return PowerPlane(rat_from_str(obj["a"]), rat_from_str(obj["b"]), rat_from_str(obj["d"]))


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

    def as_line3(self) -> Line3:
        return Line3(self.point0(), self.direction())

    def contains(self, pt: Vec3) -> bool:
        on_nv = self.nonvertical_plane().eval_at(pt) == 0
        on_v = (pt.x - self.p.x) + self.u * (pt.y - self.p.y) == 0
        return on_nv and on_v

    def to_json(self) -> dict:
        return {"p": self.p.to_json(), "u": rat_to_str(self.u)}


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


def _plane_through_pair(dp1: DirectedPoint, dp2: DirectedPoint) -> Optional[PowerPlane]:
    """The non-vertical plane containing both dual lines, if exactly one does.

    Write the pair as (p, u) and (q, v).  By line_in_plane, the dual line of
    (p, u) lies in (a, b, d) exactly when b = u*a - c with c = 2(u*p.x - p.y),
    and a*p.x + b*p.y + d = |p|^2.  Different slopes fix a from the two b
    conditions.  Equal slopes need equal c (otherwise the lines are skew or
    share only a vertical plane), which makes them parallel, and
    k = (p.x - q.x) + u(p.y - q.y), nonzero unless the points are equal; the
    two constant conditions then fix a.  d follows from the first point and
    the second is re-checked exactly.
    """
    p, u, q, v = dp1.p, dp1.u, dp2.p, dp2.u
    c1, c2 = 2 * (u * p.x - p.y), 2 * (v * q.x - q.y)
    if u != v:
        a = (c1 - c2) / (u - v)
    else:
        k = (p.x - q.x) + u * (p.y - q.y)
        if c1 != c2 or k == 0:
            return None
        a = (p.norm2() - q.norm2() + c1 * (p.y - q.y)) / k
    b = u * a - c1
    pp = PowerPlane(a, b, p.norm2() - a * p.x - b * p.y)
    return pp if line_in_plane(dp2, pp) else None


def rich_planes(dps: List[DirectedPoint], q: int) -> List[Tuple[PlaneKey, List[int]]]:
    """All planes containing at least q of the dual lines of the input.

    Each dual line lies in exactly one vertical plane, keyed by its xi-eta
    trace.  Non-vertical planes are collected from spanning pairs alone: two
    distinct lines lie in at most one plane, so if lines i and j span P, any
    other line k in P differs from i or from j, and that pair spans P too and
    adds k.  Equal directed points have equal dual lines and are not paired.
    Output is sorted by member count descending, ties broken by the
    canonical plane key.
    """
    if q < 2:
        raise ValueError("richness threshold must be at least 2")
    planes: Dict[PlaneKey, Set[int]] = {}
    for i, dp in enumerate(dps):
        planes.setdefault(dp_dual_line(dp).vertical_trace(), set()).add(i)
    for i, dp in enumerate(dps):
        for j in range(i + 1, len(dps)):
            if dp == dps[j]:
                continue
            pp = _plane_through_pair(dp, dps[j])
            if pp is not None:
                planes.setdefault(pp, set()).update((i, j))

    def sort_key(entry):
        plane, members = entry
        if isinstance(plane, PowerPlane):
            tag = (0, plane.a, plane.b, plane.d)
        else:
            tag = (1, Fraction(plane.a), Fraction(plane.b), Fraction(plane.c))
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
