"""Constructive polynomial partitioning at desk scale.

build_partition grows a factored partitioning polynomial level by level:
the level-j factor approximately bisects all 2^(j-1) current sign classes
simultaneously.  Factors are found by randomized hyperplane search in the
Veronese lift of the least degree whose monomial count exceeds the class
count, refined by local coefficient improvement; the float search only
guides the hunt, every accepted factor is re-verified with exact sign
evaluation.  Both work on integers: each point is written as (X, Y, Z) / D
over one common denominator, so a degree-d monomial row entry is the
integer X^i Y^j Z^k D^(d-i-j-k) over D^d, which the float search divides
once, and an exact sign (the balance check, classify) is the sign of an
integer sum with the factor cleared of its denominators.  Cells are
sign-vector classes: a computable coarsening of the connected components
(each true component lies inside one sign class), and every report says so
via the cell model tag.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .exact import Vec3, clear_denominators, int_vec3
from .polynomials import (
    MPoly,
    RationalCurve,
    UniPoly,
    XYZ,
    poly_gcd,
    restrict_to_curve,
    square_free_part,
    sturm_count,
)

CELL_MODEL = "sign-vector classes (coarsening of connected components)"
STARTS, SWEEPS, RETRIES = 40, 4, 6  # search starts (grown per retry), improvement sweeps, retries per level


class PartitionError(ValueError):
    """build_partition cannot build: bad levels or epsilon, too few points,
    coordinates too large for the float search, or the balance target
    missed, in which case best_epsilon is the best balance achieved."""

    def __init__(self, message: str, best_epsilon: Optional[float] = None):
        if best_epsilon is not None:
            message += f" (best achieved epsilon {best_epsilon:.4f})"
        super().__init__(message)
        self.best_epsilon = best_epsilon


@dataclass
class PartitionPoly:
    factors: List[MPoly]
    level_degrees: List[int]
    balances: List[float]  # achieved epsilon per level
    epsilon: float
    seed: int

    @property
    def degree_budget(self) -> int:
        return sum(self.level_degrees)

    def to_json(self) -> dict:
        return {
            "factors": [f.to_json() for f in self.factors],
            "level_degrees": self.level_degrees,
            "balances": self.balances,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "cell_model": CELL_MODEL,
        }


@dataclass
class CellAssignment:
    sign_vectors: List[Tuple[int, ...]]
    on_zero_set: List[bool]
    populations: Dict[Tuple[int, ...], int]

    def max_population(self) -> int:
        return max(self.populations.values()) if self.populations else 0

    def csv_rows(self) -> List[str]:
        rows = ["index,cell"]
        for i, (sv, zero) in enumerate(zip(self.sign_vectors, self.on_zero_set)):
            cell = "Z" if zero else "".join("+" if s > 0 else "-" for s in sv)
            rows.append(f"{i},{cell}")
        return rows


def veronese_monomials(degree: int) -> List[Tuple[int, int, int]]:
    """All exponent triples of total degree <= degree, constant first."""
    out = []
    for total in range(degree + 1):
        for i in range(total + 1):
            for j in range(total - i + 1):
                out.append((i, j, total - i - j))
    return out


def least_lift_degree(class_count: int) -> int:
    d = 1
    while math.comb(d + 3, 3) <= class_count:
        d += 1
    return d


def _powers(v: int, n: int) -> List[int]:
    out = [1]
    for _ in range(n):
        out.append(out[-1] * v)
    return out


def _lift(cleared: Sequence[Tuple[int, int, int, int]], monos, d: int) -> np.ndarray:
    """Float monomial rows from the integers X^i Y^j Z^k D^(d-i-j-k).

    Such an integer over D^d is the exact monomial value, and int / int
    rounds correctly, so each float equals float() of the monomial's Fraction.
    """
    rows = []
    for X, Y, Z, D in cleared:
        xs, ys, zs, ds = _powers(X, d), _powers(Y, d), _powers(Z, d), _powers(D, d)
        rows.append([xs[i] * ys[j] * zs[k] * ds[d - i - j - k] / ds[d] for (i, j, k) in monos])
    return np.array(rows)


def _signs(cleared: Sequence[Tuple[int, int, int, int]], f: MPoly) -> List[int]:
    """Exact sign of f at every point cleared to (X, Y, Z, D).

    With f scaled to integer coefficients C, f(p) has the sign of
    sum C X^i Y^j Z^k D^(deg - i - j - k).
    """
    if f.vars != XYZ:
        raise ValueError("signs expect a polynomial over (x, y, z)")
    *coefs, _ = clear_denominators(*f.terms.values())
    terms = [(*e, c) for e, c in zip(f.terms, coefs)]
    deg = f.total_degree()
    out = []
    for X, Y, Z, D in cleared:
        xs, ys, zs, ds = _powers(X, deg), _powers(Y, deg), _powers(Z, deg), _powers(D, deg)
        v = sum(c * xs[i] * ys[j] * zs[k] * ds[deg - i - j - k] for i, j, k, c in terms)
        out.append((v > 0) - (v < 0))
    return out


def _poly_from_coeffs(monos, coeffs) -> MPoly:
    return MPoly(XYZ, {mono: c for mono, c in zip(monos, coeffs) if c != 0})


def _best_constant(
    vals: np.ndarray, labels: np.ndarray, sizes: np.ndarray, target: float
) -> Tuple[float, Tuple[float, float]]:
    """Scan constant offsets: thresholds between consecutive pooled values.

    A threshold scores the largest side of any class (worst), then the sum
    over classes of (above - below)^2 (imbalance).  One sort of all values
    scores every threshold: passing the point that is the w-th of its class
    (size n) in sorted order leaves w + 1 of that class below and n - w at
    or above, and adds 4 + 8w - 4n to the sum of squares, so prefix maxima
    and prefix sums give both scores.  The thresholds are pooled[0] - 1, the
    midpoints of neighbouring pooled values and pooled[-1] + 1.  When each
    threshold lies strictly between its neighbouring values (so all values
    are distinct), threshold t has exactly t points below it and the prefix
    arrays are the scores.  Otherwise (equal values, a midpoint rounded
    onto a neighbour, an overflowed sum, NaN or inf) a threshold equal to a
    pooled value leaves that value's points on neither side, and such
    thresholds are counted directly.

    The result minimises (excess, imbalance) with excess = max(0, worst -
    target), lowest threshold first among ties.  Excess does not decrease as
    the integer worst grows, so for a target >= 0 the minimal excess is
    reached exactly where worst <= max(min worst, target); the first
    minimal imbalance among those wins.

    labels holds each point's class, with len(sizes) - 1 for a point in
    none, whose size must be 0.  Labels enter only through ranks within a
    class, sizes and bincounts, so renumbering the classes changes nothing.
    """
    m = vals.size
    if m == 0:
        return 0.0, (float("inf"), float("inf"))
    order = np.argsort(vals)
    ordered = vals[order]
    thetas = np.empty(m + 1)
    np.add(ordered[:-1], ordered[1:], out=thetas[1:-1])
    thetas[1:-1] /= 2
    thetas[0], thetas[-1] = ordered[0] - 1.0, ordered[-1] + 1.0
    distinct = (thetas[:-1] < ordered).all() and (thetas[1:] > ordered).all()
    lab = labels[order]
    # w: the number of points of the same class earlier in sorted order
    by_class = np.argsort(lab, kind="stable")
    w = np.empty(m, dtype=np.int64)
    w[by_class] = np.arange(m) - (np.cumsum(sizes) - sizes)[lab[by_class]]
    n = sizes[lab]
    # prefix scores: index j covers the first j points in sorted order
    below_max = np.empty(m + 1, dtype=np.int64)
    above_max = np.empty(m + 1, dtype=np.int64)
    squares = np.empty(m + 1, dtype=np.int64)
    below_max[0] = above_max[m] = 0
    squares[0] = sizes @ sizes
    np.maximum.accumulate(np.minimum(w + 1, n), out=below_max[1:])  # w < n in a class, n = 0 in none
    np.maximum.accumulate((n - w)[::-1], out=above_max[-2::-1])
    np.cumsum(np.where(n > 0, 4 + 8 * w - 4 * n, 0), out=squares[1:])
    squares[1:] += squares[0]
    if distinct:
        worst = np.maximum(below_max, above_max)
        imbalance = squares
    else:
        first = np.empty(m, dtype=bool)
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        starts = np.append(np.flatnonzero(first), m)
        pooled = ordered[starts[:-1]]
        thetas = np.concatenate(([pooled[0] - 1.0], (pooled[:-1] + pooled[1:]) / 2, [pooled[-1] + 1.0]))
        lo_rank = np.searchsorted(pooled, thetas, side="left")
        hi_rank = np.searchsorted(pooled, thetas, side="right")
        lo, hi = starts[lo_rank], starts[hi_rank]  # sorted positions below lo are below, from hi on above
        worst = np.maximum(below_max[lo], above_max[hi])
        imbalance = squares[lo]
        for t in np.flatnonzero(lo != hi):
            inner = np.bincount(lab[:lo[t]], minlength=sizes.size) + np.bincount(lab[:hi[t]], minlength=sizes.size)
            imbalance[t] = ((sizes - inner)[:-1] ** 2).sum()
    least = np.flatnonzero(worst <= max(worst.min(), target))
    best = int(least[imbalance[least].argmin()])
    excess = max(0.0, float(worst[best]) - target)
    return float(thetas[best]), (excess, float(imbalance[best]))


def _search_level(
    vals_matrix: np.ndarray,
    labels: np.ndarray,
    sizes: np.ndarray,
    target: float,
    rng: random.Random,
    starts: int,
) -> Tuple[float, np.ndarray]:
    """Randomized hyperplane search + local coefficient improvement.

    Returns a float threshold theta and integer coefficients for the
    non-constant monomials (the caller snaps -theta to a rational constant).
    """
    n_mono = vals_matrix.shape[1]
    best_c: Optional[np.ndarray] = None
    best_theta = 0.0
    best_score = (float("inf"), float("inf"))
    for _ in range(starts):
        c = np.array([rng.randint(-9, 9) for _ in range(n_mono - 1)], dtype=float)
        if not c.any():
            c[rng.randrange(n_mono - 1)] = 1.0
        vals = vals_matrix[:, 1:] @ c
        theta, score = _best_constant(vals, labels, sizes, target)
        for _ in range(SWEEPS):
            improved = False
            order = list(range(n_mono - 1))
            rng.shuffle(order)
            for coord in order:
                for delta in (1.0, -1.0, 4.0, -4.0, 16.0, -16.0):
                    trial = vals + delta * vals_matrix[:, 1 + coord]
                    t_theta, t_score = _best_constant(trial, labels, sizes, target)
                    if t_score < score:
                        c[coord] += delta
                        vals = trial
                        theta, score = t_theta, t_score
                        improved = True
                        break
            if score[0] == 0.0 or not improved:
                break
        if score < best_score:
            best_score = score
            best_c = c.copy()
            best_theta = theta
        if best_score[0] == 0.0 and best_score[1] == 0.0:
            break
    assert best_c is not None
    return best_theta, best_c


def build_partition(
    points: Sequence[Vec3],
    levels: int,
    epsilon: float,
    seed: int = 0,
) -> PartitionPoly:
    """Build a factored partitioning polynomial with verified balance.

    After level j every sign class holds at most (1 + epsilon) * m / 2^j
    points, re-checked with exact arithmetic; the float search only
    proposes candidates.  Every reason it cannot build raises PartitionError;
    exhausting the retry budget carries the best achieved epsilon.
    """
    m = len(points)
    if levels < 1:
        raise PartitionError("levels must be at least 1")
    if not (0 < epsilon < 1):
        raise PartitionError("epsilon must be in (0, 1)")
    if m < 2 ** levels:
        raise PartitionError("need at least 2^levels points")
    rng = random.Random(seed)
    factors: List[MPoly] = []
    degrees: List[int] = []
    balances: List[float] = []
    # labels[i]: point i's sign class, or k once on an earlier factor's zero set
    k = 1
    labels = np.zeros(m, dtype=np.min_scalar_type(k))
    sizes = np.array([m, 0])
    best_eps_seen = float("inf")

    cleared = [int_vec3(p) for p in points]
    lift_degree = None
    for level in range(1, levels + 1):
        d = least_lift_degree(k)
        monos = veronese_monomials(d)
        if d != lift_degree:
            try:
                vals_matrix = _lift(cleared, monos, d)
            except OverflowError:
                raise PartitionError("coordinates too large for the float search") from None
            lift_degree = d
        target = (1 + epsilon) * m / (2 ** level)
        accepted = None
        for attempt in range(RETRIES):
            with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN values are scored as they are
                theta, c = _search_level(vals_matrix, labels, sizes, target * 0.999, rng, STARTS * (attempt + 1))
            if not math.isfinite(theta):
                raise PartitionError("coordinates too large for the float search")
            coeffs = [Fraction(-theta).limit_denominator(1 << 16)] + [Fraction(int(v)) for v in c]
            g = _poly_from_coeffs(monos, coeffs)
            if g.is_zero():
                continue
            signs = np.array(_signs(cleared, g))
            worst = int(max(np.bincount(labels[side], minlength=k + 1)[:k].max(initial=0)
                            for side in (signs > 0, signs < 0)))
            achieved = worst * (2 ** level) / m - 1
            best_eps_seen = min(best_eps_seen, achieved)
            if worst <= target:
                accepted = (g, signs, achieved)
                break
        if accepted is None:
            raise PartitionError(f"level {level} failed balance target", best_eps_seen)
        g, signs, achieved = accepted
        factors.append(g)
        degrees.append(g.total_degree())
        balances.append(achieved)
        halves = np.where((signs == 0) | (labels == k), 2 * k, 2 * labels.astype(np.intp) + (signs > 0))
        kept, labels = np.unique(halves, return_inverse=True)
        k = int(np.count_nonzero(kept < 2 * k))  # the nonempty classes; the spare 2k sorts last
        labels = labels.astype(np.min_scalar_type(k))
        sizes = np.bincount(labels[labels < k], minlength=k + 1)

    return PartitionPoly(factors, degrees, balances, epsilon, seed)


def classify(points: Sequence[Vec3], pp: PartitionPoly) -> CellAssignment:
    """Exact sign evaluation of every factor at every point."""
    cleared = [int_vec3(p) for p in points]
    columns = [_signs(cleared, f) for f in pp.factors]
    sign_vectors = [tuple(col[i] for col in columns) for i in range(len(points))]
    on_zero = [0 in sv for sv in sign_vectors]
    populations: Dict[Tuple[int, ...], int] = {}
    for sv, zero in zip(sign_vectors, on_zero):
        if not zero:
            populations[sv] = populations.get(sv, 0) + 1
    return CellAssignment(sign_vectors, on_zero, populations)


@dataclass
class CrossingReport:
    total: int
    per_factor: List[Union[int, str]]  # count, or "contained"

    def contained_factors(self) -> List[int]:
        return [i for i, v in enumerate(self.per_factor) if v == "contained"]


def curve_crossings(curve: RationalCurve, pp: PartitionPoly) -> CrossingReport:
    """Exact crossing count of the curve with the partition zero set.

    Per factor: restrict to the curve and Sturm-count the distinct real
    roots of its square-free part.  Factors vanishing identically on the
    curve are flagged contained and left out of the total.  The total counts
    parameter values where some other factor vanishes, each once: factor i
    adds the roots left after dividing its square-free part by its gcd with
    each earlier factor's square-free part, which are exactly its roots that
    no earlier factor has.  So the total is the number of distinct real
    roots of the product of the restrictions, without forming the product.
    """
    per_factor: List[Union[int, str]] = []
    earlier: List[UniPoly] = []
    total = 0
    for f in pp.factors:
        restricted = restrict_to_curve(f, curve)
        if restricted.is_zero():
            per_factor.append("contained")
            continue
        sf = square_free_part(restricted)
        count = sturm_count(sf, None, None)
        per_factor.append(count)
        fresh = sf
        for prev in earlier:
            g = poly_gcd(fresh, prev)
            if g.degree() > 0:
                fresh = fresh.divmod(g)[0]
        total += count if fresh is sf else sturm_count(fresh, None, None)
        earlier.append(sf)
    return CrossingReport(total, per_factor)
