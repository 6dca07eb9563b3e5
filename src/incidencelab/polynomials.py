"""Univariate and sparse multivariate polynomials over the rationals.

UniPoly is a dense ascending coefficient list used for root counting on
curves (Sturm sequences with content removal each step).  MPoly is a sparse
exponent-map polynomial in named variables; it carries partition factors,
the cubic surface, and the resultant elimination.  Resultants go through
the Sylvester matrix with fraction-free (Bareiss) elimination, which stays
in the coefficient ring via exact division.  A RationalCurve is (x, y, z)/w
over one denominator; a restriction keeps only roots at its affine points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .exact import Vec3, clear_denominators, rat, rat_to_str

Coef = Union[Fraction, int]


class UniPoly:
    """Dense univariate polynomial, coefficients ascending, trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Coef]):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly([])

    @staticmethod
    def const(c: Coef) -> "UniPoly":
        return UniPoly([c])

    @staticmethod
    def x() -> "UniPoly":
        return UniPoly([0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __repr__(self) -> str:
        return f"UniPoly({[str(c) for c in self.coeffs]})"

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def scale(self, k: Coef) -> "UniPoly":
        k = rat(k)
        return UniPoly([c * k for c in self.coeffs])

    def pow(self, e: int) -> "UniPoly":
        return _power(self, e, UniPoly.const(1))

    def eval(self, t: Coef) -> Fraction:
        t = rat(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly([c * i for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other: "UniPoly") -> Tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree()
        lead, lower = other.coeffs[d], other.coeffs[:d]
        r = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(r) - d)
        # long division: step k clears r[k + d], which no later step reads
        for k in range(len(q) - 1, -1, -1):
            f = q[k] = r[k + d] / lead
            for i, c in enumerate(lower):
                r[k + i] -= f * c
        return UniPoly(q), UniPoly(r[:d])

    def primitive(self) -> "UniPoly":
        """Divide out the content (positive rational), preserving signs."""
        if self.is_zero():
            return self
        *ints, _ = clear_denominators(*self.coeffs)
        g = math.gcd(*ints)
        return UniPoly([Fraction(v, g) for v in ints])


def _power(base, e: int, one):
    """base ** e by square-and-multiply; one is the unit of base's ring."""
    out = one
    while e > 0:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


def _remainders(a: UniPoly, b: UniPoly) -> List[UniPoly]:
    """The nonzero ones of a and b, then the negated Euclidean remainders, each
    made primitive, up to the last nonzero one: a gcd of a and b up to a
    constant.  For (p, p') this is the Sturm chain of p."""
    seq = [f for f in (a, b) if not f.is_zero()]
    while len(seq) > 1:
        _, r = seq[-2].divmod(seq[-1])
        if r.is_zero():
            break
        seq.append((-r).primitive())
    return seq


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd: the last remainder of the primitive parts, made monic."""
    seq = _remainders(a.primitive(), b.primitive())
    if not seq:
        return UniPoly.zero()
    return seq[-1].scale(1 / seq[-1].leading())


def square_free_part(p: UniPoly) -> UniPoly:
    if p.is_zero():
        raise ValueError("indeterminate root set")
    g = poly_gcd(p, p.derivative())
    if g.degree() <= 0:
        return p
    q, r = p.divmod(g)
    assert r.is_zero()
    return q


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations(signs: List[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _chain_signs_at(chain: List[UniPoly], t: Optional[Fraction], at_pos_inf: bool = False) -> List[int]:
    """Signs of the chain's members at t; at +-infinity when t is None."""
    if t is not None:
        return [_sign(q.eval(t)) for q in chain]
    direction = 1 if at_pos_inf else -1
    return [_sign(q.leading()) * direction ** q.degree() for q in chain]


def sturm_count(p: UniPoly, a: Optional[Coef] = None, b: Optional[Coef] = None) -> int:
    """Count distinct real roots of p strictly inside the open interval (a, b).

    None endpoints mean -infinity / +infinity.  The count is exact: p is run
    through a signed-remainder Sturm chain with content removal at each step,
    and roots landing exactly on a finite endpoint are excluded.  The chain
    ends in gcd(p, p'), which is nonzero at +-infinity, so there the chain of
    p itself counts distinct roots; a finite endpoint may be a multiple root,
    so the chain is divided by its last element before it is evaluated there.
    """
    if p.is_zero():
        raise ValueError("indeterminate root set")
    a = None if a is None else rat(a)
    b = None if b is None else rat(b)
    if a is not None and b is not None and a >= b:
        return 0
    chain = _remainders(p, p.derivative())
    if (a is not None or b is not None) and chain[-1].degree() > 0:
        chain = [q.divmod(chain[-1])[0] for q in chain]
    va = _variations(_chain_signs_at(chain, a, at_pos_inf=False))
    vb = _variations(_chain_signs_at(chain, b, at_pos_inf=True))
    count = va - vb
    # V(a)-V(b) counts roots in (a, b]; drop b itself for the open interval.
    if b is not None and chain[0].eval(b) == 0:
        count -= 1
    return count


def cauchy_root_bound(p: UniPoly) -> Fraction:
    """All real roots of p lie strictly inside (-B, B)."""
    if p.is_zero() or p.degree() == 0:
        return Fraction(1)
    lead = abs(p.leading())
    m = max(abs(c) for c in p.coeffs[:-1])
    return 1 + m / lead


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials
# ---------------------------------------------------------------------------

Exponent = Tuple[int, ...]


class MPoly:
    """Sparse polynomial in named variables: exponent tuple -> Fraction.

    Zero coefficients are never stored; the zero polynomial is the empty map.
    Variable tuples must match between operands (construct everything over a
    common ring up front).
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Tuple[str, ...], terms: Dict[Exponent, Coef]):
        self.vars = tuple(variables)
        self.terms = {e: rat(c) for e, c in terms.items() if c != 0}

    @staticmethod
    def zero(variables: Tuple[str, ...]) -> "MPoly":
        return MPoly(variables, {})

    @staticmethod
    def const(variables: Tuple[str, ...], c: Coef) -> "MPoly":
        return MPoly(variables, {(0,) * len(variables): c})

    @staticmethod
    def var(variables: Tuple[str, ...], name: str) -> "MPoly":
        idx = variables.index(name)
        e = [0] * len(variables)
        e[idx] = 1
        return MPoly(variables, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(k == 0 for k in e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if self.is_zero():
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly(self.vars, out)

    def __neg__(self) -> "MPoly":
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        out: Dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MPoly(self.vars, out)

    def scale(self, k: Coef) -> "MPoly":
        k = rat(k)
        return MPoly(self.vars, {e: c * k for e, c in self.terms.items()})

    def pow(self, e: int) -> "MPoly":
        return _power(self, e, MPoly.const(self.vars, 1))

    def _check(self, other: "MPoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def eval(self, values: Dict[str, Coef]) -> Fraction:
        """Evaluate with a full assignment of all variables."""
        vals = [rat(values[v]) for v in self.vars]
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                if k:
                    term *= v ** k
            total += term
        return total

    def substitute(self, values: Dict[str, Coef]) -> "MPoly":
        """Partially substitute; remaining variables keep their slots."""
        idx = {v: i for i, v in enumerate(self.vars)}
        acc: Dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            coef = c
            new_e = list(e)
            for name, val in values.items():
                i = idx[name]
                if e[i]:
                    coef *= rat(val) ** e[i]
                new_e[i] = 0
            key = tuple(new_e)
            acc[key] = acc.get(key, Fraction(0)) + coef
        return MPoly(self.vars, acc)

    def coeffs_in(self, name: str) -> List["MPoly"]:
        """Coefficient list (ascending) viewing self as univariate in name."""
        i = self.vars.index(name)
        d = max((e[i] for e in self.terms), default=0)
        parts: List[Dict[Exponent, Fraction]] = [{} for _ in range(d + 1)]
        for e, c in self.terms.items():
            parts[e[i]][e[:i] + (0,) + e[i + 1:]] = c
        return [MPoly(self.vars, terms) for terms in parts]

    def leading_term(self) -> Tuple[Exponent, Fraction]:
        """Leading term under graded-lex order."""
        e = max(self.terms, key=lambda t: (sum(t), t))
        return e, self.terms[e]

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": {",".join(map(str, e)): rat_to_str(c) for e, c in sorted(self.terms.items())},
        }


XYZ = ("x", "y", "z")


def tri(terms: Dict[Exponent, Coef]) -> MPoly:
    """Trivariate polynomial over the canonical (x, y, z) ring."""
    return MPoly(XYZ, terms)


def divexact(a: MPoly, b: MPoly) -> MPoly:
    """Exact division a / b; raises when b does not divide a.

    Leading-term division under graded-lex terminates whenever b | a, because
    leading terms multiply in an integral domain.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if b.is_constant():
        return a.scale(1 / b.constant_value())
    q = MPoly.zero(a.vars)
    r = a
    be, bc = b.leading_term()
    while not r.is_zero():
        re, rc = r.leading_term()
        diff = tuple(x - y for x, y in zip(re, be))
        if any(d < 0 for d in diff):
            raise ValueError("inexact polynomial division")
        t = MPoly(a.vars, {diff: rc / bc})
        q = q + t
        r = r - t * b
    return q


def _bareiss_det(mat: List[List[MPoly]], ring: Tuple[str, ...]) -> MPoly:
    """Fraction-free determinant; divisions are exact in the coefficient ring."""
    n = len(mat)
    if n == 0:
        return MPoly.const(ring, 1)
    m = [row[:] for row in mat]
    sign = 1
    prev = MPoly.const(ring, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return MPoly.zero(ring)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = divexact(num, prev)
            m[i][k] = MPoly.zero(ring)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def resultant(p: MPoly, q: MPoly, name: str) -> MPoly:
    """Resultant of p and q with respect to the variable `name`.

    The result lives in the remaining variables and vanishes at a coefficient
    specialization iff the specialized polynomials share a common root, with
    the standard caveat: a specialization that kills a leading coefficient
    can force a spurious zero.  Both inputs constant in `name` is an error.
    """
    dp = p.degree_in(name)
    dq = q.degree_in(name)
    if dp <= 0 and dq <= 0:
        raise ValueError("both polynomials constant in the eliminated variable")
    if p.is_zero() or q.is_zero():
        return MPoly.zero(p.vars)
    pc = p.coeffs_in(name)
    qc = q.coeffs_in(name)
    if dp == 0:
        return pc[0].pow(dq)
    if dq == 0:
        return qc[0].pow(dp)
    n = dp + dq
    ring = p.vars
    zero = MPoly.zero(ring)
    mat: List[List[MPoly]] = []
    # Sylvester rows: dq shifted copies of p's coefficients, then dp of q's
    for coeffs, copies in ((pc, dq), (qc, dp)):
        for i in range(copies):
            row = [zero] * n
            for j, c in enumerate(reversed(coeffs)):
                row[i + j] = c
            mat.append(row)
    return _bareiss_det(mat, ring)


# ---------------------------------------------------------------------------
# Rational space curves and restriction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalCurve:
    """Curve s -> (x(s), y(s), z(s)) / w(s) over one common denominator w.

    In lowest terms: no root of w is a common root of x, y and z, so the
    curve has an affine point (finite coordinates) exactly where w != 0.
    """

    x: UniPoly
    y: UniPoly
    z: UniPoly
    w: UniPoly

    def __post_init__(self):
        if self.w.is_zero():
            raise ValueError("parameterization denominator identically zero")

    def point_at(self, s: Coef) -> Vec3:
        s = rat(s)
        w = self.w.eval(s)
        return Vec3(self.x.eval(s) / w, self.y.eval(s) / w, self.z.eval(s) / w)


def restrict_to_curve(f: MPoly, curve: RationalCurve) -> UniPoly:
    """f on the curve, cleared of w and of every root it shares with w.

    The sum of c x^i y^j z^k w^(d - i - j - k) over the terms of f, d its
    total degree, is w^d f(x/w, y/w, z/w); its factors shared with w are
    divided out until none is left.  So the real roots of the result are
    exactly the parameters where the curve has an affine point on f = 0,
    and the result is zero exactly when f vanishes on the whole curve.
    """
    if f.vars != XYZ:
        raise ValueError("restriction expects a polynomial over (x, y, z)")
    if f.is_zero():
        return UniPoly.zero()
    d = f.total_degree()
    xp, yp, zp, wp = ([p.pow(e) for e in range(d + 1)] for p in (curve.x, curve.y, curve.z, curve.w))
    out = UniPoly.zero()
    for (i, j, k), c in f.terms.items():
        out = out + (xp[i] * yp[j] * zp[k] * wp[d - i - j - k]).scale(c)
    if out.is_zero():
        return out
    g = poly_gcd(out, curve.w)
    while g.degree() > 0:
        out = out.divmod(g)[0]
        g = poly_gcd(out, g)
    return out
