"""Exact rational scalars and small fixed-dimension vectors.

Every coordinate in this package is a fractions.Fraction.  This module adds
the wire format for rationals ("num/den" strings, den omitted when 1),
2- and 3-vectors with the handful of products the constructions need, and
their integer forms (denominators cleared, primitive directions).  All
values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Tuple, Union

RatLike = Union[Fraction, int]


def rat(x: RatLike) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)  # isinstance would take the slow ABC path for ints


def rat_to_str(x: Fraction) -> str:
    """Serialize exactly: "3/4", or "5" when the denominator is 1."""
    x = rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_from_str(s: str) -> Fraction:
    return Fraction(s)


@dataclass(frozen=True)
class Vec2:
    x: Fraction
    y: Fraction

    def __init__(self, x: RatLike, y: RatLike):
        object.__setattr__(self, "x", rat(x))
        object.__setattr__(self, "y", rat(y))

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def scale(self, k: RatLike) -> "Vec2":
        k = rat(k)
        return Vec2(self.x * k, self.y * k)

    def dot(self, other: "Vec2") -> Fraction:
        return self.x * other.x + self.y * other.y

    def norm2(self) -> Fraction:
        return self.dot(self)

    def to_json(self) -> list:
        return [rat_to_str(self.x), rat_to_str(self.y)]

    @staticmethod
    def from_json(obj: list) -> "Vec2":
        return Vec2(*_coords(obj, 2))


@dataclass(frozen=True)
class Vec3:
    x: Fraction
    y: Fraction
    z: Fraction

    def __init__(self, x: RatLike, y: RatLike, z: RatLike):
        object.__setattr__(self, "x", rat(x))
        object.__setattr__(self, "y", rat(y))
        object.__setattr__(self, "z", rat(z))

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scale(self, k: RatLike) -> "Vec3":
        k = rat(k)
        return Vec3(self.x * k, self.y * k, self.z * k)

    def dot(self, other: "Vec3") -> Fraction:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm2(self) -> Fraction:
        return self.dot(self)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0

    def to_json(self) -> list:
        return [rat_to_str(self.x), rat_to_str(self.y), rat_to_str(self.z)]

    @staticmethod
    def from_json(obj: list) -> "Vec3":
        return Vec3(*_coords(obj, 3))


def _coords(obj, n: int) -> Tuple[Fraction, ...]:
    """n coordinates from a JSON list; any other shape raises ValueError."""
    if not isinstance(obj, (list, tuple)) or len(obj) != n:
        raise ValueError(f"expected a list of {n} coordinates, got {obj!r}")
    return tuple(Fraction(v) for v in obj)


def clear_denominators(*xs: RatLike) -> Tuple[int, ...]:
    """(*N, D) with xs = N / D and D the lcm of the denominators."""
    d = lcm(*[x.denominator for x in xs])
    return (*[x.numerator * (d // x.denominator) for x in xs], d)


def _clear3(x: Fraction, y: Fraction, z: Fraction) -> Tuple[int, int, int, int]:
    """``clear_denominators`` of three values, unrolled: it runs once per
    object on every count."""
    a, b, c = x.denominator, y.denominator, z.denominator
    d = lcm(a, b, c)
    return (x.numerator * (d // a), y.numerator * (d // b), z.numerator * (d // c), d)


def int_vec3(v: Vec3) -> Tuple[int, int, int, int]:
    """(x, y, z, d): v = (x, y, z) / d over the lcm d of its denominators."""
    return _clear3(v.x, v.y, v.z)


def rand_tan_half(rng) -> Fraction:
    """Seeded rational rotation parameter (the tangent of a half angle)."""
    return Fraction(rng.randint(-99, 99), rng.randint(1, 20))


def primitive_int_vec3(v: Vec3) -> Vec3:
    """Scale a nonzero rational vector to coprime integers, first nonzero positive."""
    nx, ny, nz, _ = int_vec3(v)
    g = gcd(nx, ny, nz)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    if nx < 0 or (nx == 0 and (ny < 0 or (ny == 0 and nz < 0))):
        g = -g
    return Vec3(nx // g, ny // g, nz // g)
