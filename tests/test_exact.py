import random
from fractions import Fraction

import pytest

from incidencelab.exact import (
    Vec2,
    Vec3,
    primitive_int_vec3,
    rat_from_str,
    rat_to_str,
)


class TestRationalWireFormat:
    def test_den_omitted_when_one(self):
        assert rat_to_str(Fraction(5)) == "5"
        assert rat_to_str(Fraction(-7)) == "-7"

    def test_fraction_form(self):
        assert rat_to_str(Fraction(3, 4)) == "3/4"
        assert rat_to_str(Fraction(-3, 4)) == "-3/4"

    def test_round_trip(self):
        rng = random.Random(0)
        for _ in range(500):
            x = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
            assert rat_from_str(rat_to_str(x)) == x


class TestVectors:
    def test_cross_and_dot(self):
        a, b = Vec3(1, 0, 0), Vec3(0, 1, 0)
        assert a.cross(b) == Vec3(0, 0, 1)
        assert a.dot(b) == 0
        assert Vec2(3, 4).norm2() == 25

    def test_json_round_trip(self):
        v = Vec3(Fraction(1, 3), Fraction(-2), Fraction(7, 5))
        assert Vec3.from_json(v.to_json()) == v


class TestPrimitive:
    def test_scaling_and_sign(self):
        assert primitive_int_vec3(Vec3(Fraction(1, 2), Fraction(-1, 4), 0)) == Vec3(2, -1, 0)
        assert primitive_int_vec3(Vec3(-2, 4, -6)) == Vec3(1, -2, 3)
        assert primitive_int_vec3(Vec3(0, Fraction(-5, 3), 0)) == Vec3(0, 1, 0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive_int_vec3(Vec3(0, 0, 0))
