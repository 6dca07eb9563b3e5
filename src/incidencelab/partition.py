"""Constructive polynomial partitioning at desk scale.

build_partition grows a factored partitioning polynomial level by level:
the level-j factor approximately bisects all 2^(j-1) current sign classes
simultaneously.  Factors are found by randomized hyperplane search in the
Veronese lift of the least degree whose monomial count exceeds the class
count, refined by local coefficient improvement; the float search only
guides the hunt, every accepted factor is re-verified with exact sign
evaluation.  Both work on integers: each point is written as (X, Y, Z) / D
over one common denominator, so the row entry for x^i y^j z^k is the
integer X^i Y^j Z^k over D^(i+j+k), divided once into a float, and an
exact sign (the balance check, classify) is the sign of an integer sum
with the factor cleared of its denominators.  Cells are
sign-vector classes: a computable coarsening of the connected components
(each true component lies inside one sign class), and every report says so
via the cell model tag.

Above SAMPLE points the search climbs on a fixed stratified sample of the
classes, used as an epsilon-approximation: polynomial sign ranges have
bounded VC-dimension (Agarwal, Matousek and Sharir 2013, after Haussler and
Welzl 1987).  The threshold is still picked on all points, and the exact
balance check on all points stays the gate.  There a level stops at the
first start that splits every class within epsilon/2 on all points (see
_search_level), and PartitionPoly.starts records the starts each level
tried.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
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
SAMPLE = 1024  # above this many points a level searches on a stratified sample of about this size


class PartitionError(ValueError):
    """build_partition cannot build: bad levels or epsilon, too few points,
    coordinates too large for the float search, or the balance target
    missed, in which case best_epsilon is the best balance the failing
    level achieved."""

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
    starts: List[int] = field(default_factory=list)  # search starts tried per level, over all its attempts

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
            "starts": self.starts,
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


def _lift(cleared: Sequence[Tuple[int, int, int, int]], monos) -> np.ndarray:
    """Float monomial rows: the entry for x^i y^j z^k is X^i Y^j Z^k / D^(i+j+k).

    That quotient of integers is the exact monomial value, and int / int
    rounds correctly, so each float equals float() of the monomial's Fraction.
    """
    return np.array([[X**i * Y**j * Z**k / D**(i + j + k) for i, j, k in monos] for X, Y, Z, D in cleared])


def _signs(cleared: Sequence[Tuple[int, int, int, int]], f: MPoly) -> List[int]:
    """Exact sign of f at every point cleared to (X, Y, Z, D).

    With f scaled to integer coefficients C, f(p) has the sign of
    sum C X^i Y^j Z^k D^(deg - i - j - k).
    """
    if f.vars != XYZ:
        raise ValueError("signs expect a polynomial over (x, y, z)")
    *coefs, _ = clear_denominators(*f.terms.values())
    deg = f.total_degree()
    terms = [(c, i, j, k, deg - i - j - k) for (i, j, k), c in zip(f.terms, coefs)]
    out = []
    for X, Y, Z, D in cleared:
        v = sum(c * X**i * Y**j * Z**k * D**e for c, i, j, k, e in terms)
        out.append((v > 0) - (v < 0))
    return out


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


def _sample(labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Indices of the fixed stratified sample of about SAMPLE points.

    Each nonempty class gives evenly spaced members of its own, in
    proportion to its size and at least one; the spare class gives none.
    Nothing is drawn at random, so a level's sample is the same on every
    retry.
    """
    k = sizes.size - 1
    total = int(sizes[:k].sum())
    by_class = np.argsort(labels, kind="stable")
    firsts = np.cumsum(sizes) - sizes
    picks = []
    for c in range(k):
        n = int(sizes[c])
        take = max(1, round(SAMPLE * n / total))
        picks.append(by_class[firsts[c] + (2 * np.arange(take) + 1) * n // (2 * take)])
    return np.sort(np.concatenate(picks))


def _climb(
    vals_matrix: np.ndarray,
    labels: np.ndarray,
    sizes: np.ndarray,
    target: float,
    c: np.ndarray,
    rng: random.Random,
    sweeps: int,
) -> Tuple[float, Tuple[float, float]]:
    """Coordinate hill-climb of c in place: each sweep visits the coordinates
    in a shuffled order and takes the first step that lowers the score, and
    the climb stops after a sweep with no such step or with no excess left.
    Returns the threshold and score of the final c."""
    n_mono = vals_matrix.shape[1]
    vals = vals_matrix[:, 1:] @ c
    theta, score = _best_constant(vals, labels, sizes, target)
    for _ in range(sweeps):
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
    return theta, score


def _search_level(
    vals_matrix: np.ndarray,
    labels: np.ndarray,
    sizes: np.ndarray,
    target: float,
    rng: random.Random,
    starts: int,
    enough: float,
) -> Tuple[float, np.ndarray, int]:
    """Randomized hyperplane search + local coefficient improvement.

    With more than SAMPLE points the starts and the hill-climb score on the
    fixed stratified sample of _sample (against the target scaled to its
    size), and each start's coefficients are scored once more on all points:
    that call picks the threshold and ranks the starts.  The best start then
    takes one hill-climb sweep on all points against target 0, so that each
    step and the final threshold lower its largest side first.  With at
    most SAMPLE points every score is on all points.

    The search stops at the first start whose score on all points has no
    excess and an imbalance of at most enough.  build_partition passes
    enough = (epsilon/2)^2 * sum n_c^2 above SAMPLE points: when every
    class c meets (above - below)^2 <= (epsilon/2)^2 n_c^2, each of its
    halves holds at most (1 + epsilon/2) n_c / 2 points, so half of the
    epsilon slack is left for the later levels.  A sampled climb almost
    never scores a perfect (0, 0) on all points, so without this bound
    every sampled level would run all its starts.  At most SAMPLE points it
    passes 0, and only a perfect (0, 0) stops early: a bound there made
    more small builds fail, and those builds stay as they were.

    Returns a float threshold theta, integer coefficients for the
    non-constant monomials (the caller snaps -theta to a rational constant)
    and the number of starts tried.
    """
    m, n_mono = vals_matrix.shape
    sampled = m > SAMPLE
    if sampled:
        idx = _sample(labels, sizes)
        s_labels = labels[idx]
        search = (vals_matrix[idx], s_labels, np.bincount(s_labels, minlength=sizes.size), target * idx.size / m)
    else:
        search = (vals_matrix, labels, sizes, target)
    best_c: Optional[np.ndarray] = None
    best_theta = 0.0
    best_score = (float("inf"), float("inf"))
    for tried in range(1, starts + 1):
        c = np.array([rng.randint(-9, 9) for _ in range(n_mono - 1)], dtype=float)
        if not c.any():
            c[rng.randrange(n_mono - 1)] = 1.0
        theta, score = _climb(*search, c, rng, SWEEPS)
        if sampled:
            theta, score = _best_constant(vals_matrix[:, 1:] @ c, labels, sizes, target)
        if score < best_score:
            best_score = score
            best_c = c.copy()
            best_theta = theta
        if best_score[0] == 0.0 and best_score[1] <= enough:
            break
    assert best_c is not None
    if sampled:
        best_theta, _ = _climb(vals_matrix, labels, sizes, 0.0, best_c, rng, 1)
    return best_theta, best_c, tried


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
    exhausting the retry budget carries the failing level's best epsilon.
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
    starts: List[int] = []

    cleared = [int_vec3(p) for p in points]
    lift_degree = None
    for level in range(1, levels + 1):
        d = least_lift_degree(k)
        monos = veronese_monomials(d)
        if d != lift_degree:
            try:
                vals_matrix = _lift(cleared, monos)
            except OverflowError:
                raise PartitionError("coordinates too large for the float search") from None
            lift_degree = d
        target = (1 + epsilon) * m / (2 ** level)
        enough = (epsilon / 2) ** 2 * float(sizes @ sizes) if m > SAMPLE else 0.0
        accepted = None
        best_eps_seen = float("inf")
        tried = 0
        for attempt in range(RETRIES):
            with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN values are scored as they are
                theta, c, n = _search_level(
                    vals_matrix, labels, sizes, target * 0.999, rng, STARTS * (attempt + 1), enough)
            tried += n
            if not math.isfinite(theta):
                raise PartitionError("coordinates too large for the float search")
            coeffs = [Fraction(-theta).limit_denominator(1 << 16)] + [int(v) for v in c]
            g = MPoly(XYZ, dict(zip(monos, coeffs)))
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
        starts.append(tried)
        halves = np.where((signs == 0) | (labels == k), 2 * k, 2 * labels.astype(np.intp) + (signs > 0))
        kept, labels = np.unique(halves, return_inverse=True)
        k = int(np.count_nonzero(kept < 2 * k))  # the nonempty classes; the spare 2k sorts last
        labels = labels.astype(np.min_scalar_type(k))
        sizes = np.bincount(labels[labels < k], minlength=k + 1)

    return PartitionPoly(factors, degrees, balances, epsilon, seed, starts)


def classify(points: Sequence[Vec3], pp: PartitionPoly) -> CellAssignment:
    """Exact sign evaluation of every factor at every point."""
    cleared = [int_vec3(p) for p in points]
    columns = [_signs(cleared, f) for f in pp.factors]
    sign_vectors = [tuple(col[i] for col in columns) for i in range(len(points))]
    on_zero = [0 in sv for sv in sign_vectors]
    populations = Counter(sv for sv, zero in zip(sign_vectors, on_zero) if not zero)
    return CellAssignment(sign_vectors, on_zero, populations)


@dataclass
class CrossingReport:
    total: int
    per_factor: List[Union[int, str]]  # count, or "contained"

    def contained_factors(self) -> List[int]:
        return [i for i, v in enumerate(self.per_factor) if v == "contained"]


def curve_crossings(curve: RationalCurve, pp: PartitionPoly) -> CrossingReport:
    """Exact crossing count of the curve with the partition zero set.

    Crossings are counted only where the curve has an affine point (a point
    with finite coordinates): restrict_to_curve owns that rule, so the real
    roots of each restriction are the crossings.  Per factor: restrict to
    the curve, take the square-free part and Sturm-count its distinct real
    roots.  Factors vanishing identically on the curve are flagged contained
    and left out of the total.  The total counts parameter values where some
    other factor vanishes, each once: factor i adds the roots left after
    dividing its square-free part by its gcd with each earlier factor's,
    which are exactly its roots that no earlier factor has.  So the total is
    the number of distinct real roots of the product of the restrictions,
    without forming the product.
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
