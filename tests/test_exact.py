import math
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from incidencelab.exact import (
    Vec2,
    Vec3,
    clear_denominators,
    int_vec3,
    primitive_int_vec3,
    rand_below,
    rat_from_str,
    rat_to_str,
)
from incidencelab.tangency import Circle2, DirectedPoint, int_circle, int_dp


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


class TestRandBelow:
    # widths above 32 bits take several getrandbits words per draw
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 20, 199, 20001, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40 + 3])
    def test_matches_the_interpreters_randrange(self, n):
        ours, theirs = random.Random(n), random.Random(n)
        assert [rand_below(ours.getrandbits, n) for _ in range(1000)] == [theirs.randrange(n) for _ in range(1000)]
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("n", [0, -1, -8])
    def test_empty_range_raises(self, n):
        with pytest.raises(ValueError):
            rand_below(random.Random(0).getrandbits, n)


class TestPrimitive:
    def test_scaling_and_sign(self):
        assert primitive_int_vec3(Vec3(Fraction(1, 2), Fraction(-1, 4), 0)) == Vec3(2, -1, 0)
        assert primitive_int_vec3(Vec3(-2, 4, -6)) == Vec3(1, -2, 3)
        assert primitive_int_vec3(Vec3(0, Fraction(-5, 3), 0)) == Vec3(0, 1, 0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive_int_vec3(Vec3(0, 0, 0))


# Huge numerators over huge denominators, mixed with integers (unit denominators).
MIXED = (st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 64))
         | st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None, phases=(Phase.generate,))
@given(st.lists(MIXED, min_size=1, max_size=6))
def test_clear_denominators_at_huge_magnitude(xs):
    *nums, d = clear_denominators(*xs)
    assert d == math.lcm(*(x.denominator for x in xs))
    assert [Fraction(n, d) for n in nums] == xs
    if len(xs) == 2:  # the unrolled clearings agree with the general one
        assert int_circle(Circle2(Vec2(*xs), 1)) == (*nums, d, 1, 1)
    if len(xs) == 3:
        assert int_vec3(Vec3(*xs)) == int_dp(DirectedPoint(Vec2(*xs[:2]), xs[2])) == (*nums, d)
        v = primitive_int_vec3(Vec3(*xs)) if any(xs) else None
        if v is not None:  # coprime, first nonzero positive, parallel to xs
            assert math.gcd(int(v.x), int(v.y), int(v.z)) == 1
            assert next(c for c in (v.x, v.y, v.z) if c) > 0
            assert Vec3(*xs).cross(v).is_zero()
