import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from incidencelab.anchored import LiftedCircle, lifted_param
from incidencelab.exact import Vec2, Vec3
from incidencelab.polynomials import (
    MPoly,
    RationalCurve,
    UniPoly,
    XYZ,
    cauchy_root_bound,
    divexact,
    poly_gcd,
    resultant,
    restrict_to_curve,
    square_free_part,
    sturm_count,
    tri,
)
from incidencelab.tangency import Circle2


def upoly(*coeffs):
    return UniPoly(list(coeffs))


class TestUniPolyBasics:
    def test_trim_and_degree(self):
        assert upoly(1, 2, 0, 0).degree() == 1
        assert UniPoly.zero().is_zero()
        assert upoly(0).is_zero()

    def test_arithmetic_exact(self):
        rng = random.Random(7)
        for _ in range(200):
            a = upoly(*[Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(rng.randint(0, 6))])
            b = upoly(*[Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(rng.randint(0, 6))])
            assert (a + b) - b == a

    def test_divmod_roundtrip(self):
        a = upoly(Fraction(1), Fraction(-3), Fraction(0), Fraction(2))
        b = upoly(Fraction(-1), Fraction(1))
        q, r = a.divmod(b)
        assert q * b + r == a

    def test_gcd(self):
        p = upoly(-1, 0, 1)  # (t-1)(t+1)
        q = upoly(-1, 1)     # t-1
        g = poly_gcd(p, q)
        assert g == upoly(-1, 1)

    def test_square_free(self):
        # (t-1)^2 (t+3)
        p = upoly(3, -5, 1, 1)
        sf = square_free_part(p)
        assert sf.degree() == 2
        assert sf.eval(1) == 0 and sf.eval(-3) == 0


class TestSturm:
    def test_sqrt2_in_0_2(self):
        assert sturm_count(upoly(-2, 0, 1), 0, 2) == 1

    def test_no_real_roots(self):
        assert sturm_count(upoly(1, 0, 1), None, None) == 0

    def test_repeated_root_counted_once(self):
        # (t-1)^2 (t+3) has distinct roots {1, -3}
        p = upoly(-1, 1) * upoly(-1, 1) * upoly(3, 1)
        assert sturm_count(p, None, None) == 2

    @pytest.mark.parametrize("a, b, want", [(1, 2, 0), (-4, 1, 1), (0, 5, 1), (-3, 1, 0)])
    def test_endpoint_at_repeated_root(self, a, b, want):
        # every element of the chain of (t-1)^2 (t+3) vanishes at t = 1
        p = upoly(-1, 1) * upoly(-1, 1) * upoly(3, 1)
        assert sturm_count(p, a, b) == want

    def test_open_interval_excludes_endpoints(self):
        p = upoly(-1, 0, 1)  # roots -1, 1
        assert sturm_count(p, -1, 1) == 0
        assert sturm_count(p, -2, 1) == 1
        assert sturm_count(p, -1, 2) == 1
        assert sturm_count(p, -2, 2) == 2

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="indeterminate root set"):
            sturm_count(UniPoly.zero(), 0, 1)

    def test_against_numpy_roots(self):
        # Scaled-down version of the exact-vs-numeric agreement run; the
        # full-size run lives in the verify suite.
        rng = random.Random(20260810)
        trials = 0
        for _ in range(400):
            deg = rng.randint(1, 12)
            coeffs = [rng.randint(-100, 100) for _ in range(deg + 1)]
            if coeffs[-1] == 0:
                coeffs[-1] = 1
            p = upoly(*coeffs)
            got = sturm_count(p, None, None)
            roots = np.roots(list(reversed([float(c) for c in p.coeffs])))
            real = sorted(r.real for r in roots if abs(r.imag) <= 1e-7 * max(1.0, abs(r)))
            distinct = []
            for r in real:
                if not distinct or abs(r - distinct[-1]) > 1e-7 * max(1.0, abs(r)):
                    distinct.append(r)
            if any(abs(a - b) < 1e-6 * max(1.0, abs(a)) for a, b in zip(distinct, distinct[1:])):
                continue  # numerically ambiguous cluster; skip
            trials += 1
            assert got == len(distinct), f"sturm={got} numeric={distinct} poly={p}"
        assert trials > 350


class TestResultant:
    def test_parabola_eliminant(self):
        ring = ("t", "x", "y")
        t = MPoly.var(ring, "t")
        x = MPoly.var(ring, "x")
        y = MPoly.var(ring, "y")
        # res_t(x - t, y - t^2) = y - x^2 up to sign
        r = resultant(x - t, y - t * t, "t")
        expect = y - x * x
        assert r == expect or r == -expect

    def test_linear_pair(self):
        ring = ("t", "a", "b")
        t = MPoly.var(ring, "t")
        a = MPoly.var(ring, "a")
        b = MPoly.var(ring, "b")
        r = resultant(t - a, t - b, "t")
        expect = a - b
        assert r == expect or r == -expect

    def test_shared_roots_vanish(self):
        ring = ("t", "c")
        t = MPoly.var(ring, "t")
        c = MPoly.var(ring, "c")
        p = t * t + c * t + MPoly.const(ring, 3)
        assert resultant(p, p, "t").is_zero()

    def test_both_constant_rejected(self):
        ring = ("t", "c")
        c = MPoly.var(ring, "c")
        with pytest.raises(ValueError):
            resultant(c, c + MPoly.const(ring, 1), "t")

    def test_specialization_vs_gcd(self):
        # resultant vanishes at a specialization iff the specialized gcd is
        # nonconstant (skipping specializations that kill a leading term).
        ring = ("t", "a", "b")
        rng = random.Random(99)
        for _ in range(25):
            t = MPoly.var(ring, "t")
            a = MPoly.var(ring, "a")
            b = MPoly.var(ring, "b")

            def rnd_poly():
                out = MPoly.zero(ring)
                for i in range(rng.randint(1, 3) + 1):
                    coef = rng.choice([MPoly.const(ring, rng.randint(-3, 3)), a, b, a + b])
                    out = out + coef * t.pow(i)
                return out

            p, q = rnd_poly(), rnd_poly()
            if p.degree_in("t") < 1 or q.degree_in("t") < 1:
                continue
            r = resultant(p, q, "t")
            for _ in range(40):
                va, vb = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
                sub = {"a": va, "b": vb}
                pl = p.coeffs_in("t")[-1].substitute(sub)
                ql = q.coeffs_in("t")[-1].substitute(sub)
                if pl.is_zero() or ql.is_zero():
                    continue
                ps = UniPoly([c.substitute(sub).constant_value() for c in p.coeffs_in("t")])
                qs = UniPoly([c.substitute(sub).constant_value() for c in q.coeffs_in("t")])
                g = poly_gcd(ps, qs)
                rv = r.substitute(sub).constant_value() if not r.is_zero() else Fraction(0)
                assert (rv == 0) == (g.degree() >= 1)


def unit_circle_curve():
    one = UniPoly.const(1)
    s, s2 = UniPoly.x(), UniPoly.x() * UniPoly.x()
    return RationalCurve(x=one - s2, y=s.scale(2), z=UniPoly.zero(), w=one + s2)


class TestRestrictToCurve:
    def test_identity_on_unit_circle(self):
        f = tri({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 0): -1})  # x^2+y^2-1
        assert restrict_to_curve(f, unit_circle_curve()).is_zero()

    def test_coordinate_plane_crossings(self):
        f = tri({(1, 0, 0): 1})  # x
        r = restrict_to_curve(f, unit_circle_curve())
        assert r == UniPoly([1, 0, -1])  # 1 - s^2
        assert sturm_count(r, None, None) == 2

    def test_line_crossing(self):
        one = UniPoly.const(1)
        s = UniPoly.x()
        line = RationalCurve(s, s, s - UniPoly.const(3), one)
        f = tri({(0, 0, 1): 1})  # z
        r = restrict_to_curve(f, line)
        assert r.degree() == 1 and r.eval(3) == 0

    def test_root_shared_with_w_stripped_past_its_multiplicity_in_w(self):
        # w = (s - 1)^2, and x^3 (x - y) restricts to (s - 1)^3 (s - 2): the strip
        # takes (s - 1)^2, then s - 1, and stops at s - 2, where the curve
        # passes through (1, 1, 2)
        one, s = UniPoly.const(1), UniPoly.x()
        curve = RationalCurve(s - one, one, s, (s - one).pow(2))
        f = tri({(4, 0, 0): 1, (3, 1, 0): -1})
        assert restrict_to_curve(f, curve) == upoly(-2, 1)
        assert curve.point_at(2) == Vec3(1, 1, 2)


small = st.fractions(-9, 9, max_denominator=9)


@st.composite
def lifted_factor_and_parameters(draw):
    """A lifted circle, a factor of degree 1 to 3 through its point at s0,
    and s0 and one more parameter s, neither a root of w."""
    center, base = Vec2(draw(small), draw(small)), Vec2(draw(small), draw(small))
    assume(base != center)
    curve = lifted_param(LiftedCircle(Circle2(center, (base - center).norm2())), base)
    s0, s = draw(small), draw(small)
    assume(curve.w.eval(s0) != 0 and curve.w.eval(s) != 0)
    d = draw(st.integers(1, 3))
    monos = [(i, j, k) for i in range(d + 1) for j in range(d + 1 - i) for k in range(d + 1 - i - j)]
    terms = dict(zip(monos, draw(st.lists(st.integers(-5, 5), min_size=len(monos), max_size=len(monos)))))
    terms[draw(st.sampled_from([e for e in monos if sum(e) == d]))] = draw(st.integers(1, 5))
    g = tri(terms)
    p0 = curve.point_at(s0)
    return curve, g - tri({(0, 0, 0): g.eval({"x": p0.x, "y": p0.y, "z": p0.z})}), (s0, s)


@settings(max_examples=40, deadline=None, derandomize=True, database=None, phases=(Phase.generate,))
@given(lifted_factor_and_parameters())
def test_restriction_vanishes_exactly_where_the_factor_does_on_the_curve(case):
    curve, f, params = case
    r = restrict_to_curve(f, curve)
    for s in params:
        p = curve.point_at(s)
        assert (r.eval(s) == 0) == (f.eval({"x": p.x, "y": p.y, "z": p.z}) == 0)
    assert r.is_zero() or poly_gcd(r, curve.w).degree() == 0


class TestDivexact:
    def test_random_products(self):
        ring = ("x", "y", "z")
        rng = random.Random(5)
        for _ in range(50):
            def rnd():
                return MPoly(ring, {
                    (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4, 4)
                    for _ in range(rng.randint(1, 4))
                })
            a, b = rnd(), rnd()
            if b.is_zero():
                continue
            assert divexact(a * b, b) == a

    def test_inexact_raises(self):
        x = MPoly.var(XYZ, "x")
        y = MPoly.var(XYZ, "y")
        with pytest.raises(ValueError):
            divexact(x, y)


def test_cauchy_bound_contains_roots():
    p = upoly(-6, 11, -6, 1)  # roots 1, 2, 3
    assert cauchy_root_bound(p) > 3
    assert sturm_count(p, -cauchy_root_bound(p), cauchy_root_bound(p)) == 3


ROOT = st.builds(Fraction, st.integers(-2 ** 32, 2 ** 32), st.integers(1, 2 ** 16))
HUGE = st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200).filter(bool), st.integers(1, 2 ** 64))
COEF = st.builds(Fraction, st.integers(-2 ** 64, 2 ** 64), st.integers(1, 2 ** 32))


@st.composite
def factored_pairs(draw):
    """Two polynomials over shared roots, each root a linear factor of
    multiplicity 0-3 on each side, times up to 4 random coefficients and a
    huge scalar; then two distinct endpoints, often roots themselves."""
    roots = draw(st.lists(ROOT, min_size=1, max_size=5, unique=True))

    def side():
        p = UniPoly.const(draw(HUGE))
        for r in roots:
            p = p * upoly(-r, 1).pow(draw(st.integers(0, 3)))
        extra = UniPoly(draw(st.lists(COEF, max_size=4)))
        return p if extra.is_zero() else p * extra

    a, b = side(), side()
    ends = draw(st.lists(st.one_of(st.sampled_from(roots), ROOT), min_size=2, max_size=2, unique=True))
    return a, b, sorted(ends)


@settings(max_examples=150, deadline=None, derandomize=True, database=None, phases=(Phase.generate,))
@given(factored_pairs())
def test_remainder_algorithms_match_sympy_at_huge_magnitude(case):
    sympy = pytest.importorskip("sympy")
    a, b, (lo, hi) = case
    t = sympy.Symbol("t")

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], t, domain="QQ")

    def from_sympy_monic(P):
        return UniPoly([Fraction(int(c.p), int(c.q)) for c in reversed(P.monic().all_coeffs())])

    def monic(p):
        return p.scale(1 / p.leading())

    A, B = to_sympy(a), to_sympy(b)
    q, r = a.divmod(b)
    assert q * b + r == a and r.degree() < b.degree()
    assert poly_gcd(a, b) == from_sympy_monic(sympy.gcd(A, B))
    assert monic(square_free_part(a)) == from_sympy_monic(sympy.sqf_part(A))
    # count_roots counts distinct roots in a closed interval
    assert sturm_count(a) == A.count_roots()
    on_lo, on_hi = int(a.eval(lo) == 0), int(a.eval(hi) == 0)
    slo, shi = (sympy.Rational(e.numerator, e.denominator) for e in (lo, hi))
    assert sturm_count(a, lo, hi) == A.count_roots(slo, shi) - on_lo - on_hi
    assert sturm_count(a, lo, None) == A.count_roots(inf=slo) - on_lo
    assert sturm_count(a, None, hi) == A.count_roots(sup=shi) - on_hi
