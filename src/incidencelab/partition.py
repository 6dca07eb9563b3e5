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

from .exact import Vec3
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


class PartitionError(Exception):
    def __init__(self, message: str, best_epsilon: float):
        super().__init__(f"{message} (best achieved epsilon {best_epsilon:.4f})")
        self.best_epsilon = best_epsilon


@dataclass
class PartitionPoly:
    factors: List[MPoly]
    level_degrees: List[int]
    balances: List[float]  # achieved epsilon per level
    epsilon: float
    seed: int
    cell_model: str = CELL_MODEL

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
            "cell_model": self.cell_model,
        }

    @staticmethod
    def from_json(obj: dict) -> "PartitionPoly":
        return PartitionPoly(
            [MPoly.from_json(f) for f in obj["factors"]],
            list(obj["level_degrees"]),
            list(obj["balances"]),
            obj["epsilon"],
            obj["seed"],
            obj.get("cell_model", CELL_MODEL),
        )


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


def _clear(p: Vec3) -> Tuple[int, int, int, int]:
    """(X, Y, Z, D) with (x, y, z) = (X, Y, Z) / D and D the lcm of the denominators."""
    d = math.lcm(p.x.denominator, p.y.denominator, p.z.denominator)
    return (p.x.numerator * (d // p.x.denominator), p.y.numerator * (d // p.y.denominator),
            p.z.numerator * (d // p.z.denominator), d)


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
    lcm = math.lcm(*(c.denominator for c in f.terms.values()))
    axes = [XYZ.index(v) for v in f.vars]
    terms = []
    for e, c in f.terms.items():
        ex = [0, 0, 0]
        for axis, k in zip(axes, e):
            ex[axis] = k
        terms.append((*ex, c.numerator * (lcm // c.denominator)))
    deg = f.total_degree()
    out = []
    for X, Y, Z, D in cleared:
        xs, ys, zs, ds = _powers(X, deg), _powers(Y, deg), _powers(Z, deg), _powers(D, deg)
        v = sum(c * xs[i] * ys[j] * zs[k] * ds[deg - i - j - k] for i, j, k, c in terms)
        out.append((v > 0) - (v < 0))
    return out


def _poly_from_coeffs(monos, coeffs) -> MPoly:
    return MPoly(XYZ, {mono: c for mono, c in zip(monos, coeffs) if c != 0})


def _class_labels(classes: List[np.ndarray], m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Class of every point, len(classes) for a point in none, and the class
    sizes, with size 0 for that spare label."""
    n_classes = len(classes)
    labels = np.full(m, n_classes, dtype=np.min_scalar_type(n_classes))
    for c, idx in enumerate(classes):
        labels[idx] = c
    sizes = np.bincount(labels, minlength=n_classes + 1)
    sizes[n_classes] = 0
    return labels, sizes


def _best_constant(
    vals: np.ndarray, labels: np.ndarray, sizes: np.ndarray, target: float
) -> Tuple[float, Tuple[float, float]]:
    """Scan constant offsets: thresholds between consecutive pooled values.

    A threshold scores the largest side of any class, then the sum over
    classes of (above - below)^2.  One sort of all values scores every
    threshold: passing the point that is the w-th of its class (size n) in
    sorted order leaves w + 1 of that class below and n - w at or above, and
    adds 4 + 8w - 4n to the sum of squares, so prefix maxima and prefix sums
    give both scores.  A threshold equal to a pooled value leaves that
    value's points on neither side; such thresholds are counted directly.
    """
    m = vals.size
    if m == 0:
        return 0.0, (float("inf"), float("inf"))
    order = np.argsort(vals)
    ordered = vals[order]
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.append(np.flatnonzero(first), m)
    pooled = ordered[starts[:-1]]
    mids = (pooled[:-1] + pooled[1:]) / 2
    thetas = np.concatenate(([pooled[0] - 1.0], mids, [pooled[-1] + 1.0]))
    if (thetas[1:] >= pooled).all() and (thetas[:-1] <= pooled).all():
        # threshold t lies between pooled values t-1 and t, maybe rounded onto
        # one; these comparisons cost a seventh of two searchsorted calls
        ranks = np.arange(thetas.size)
        lo_rank = ranks - np.append(False, thetas[1:] == pooled)
        hi_rank = ranks + np.append(thetas[:-1] == pooled, False)
    else:  # a sum overflowed, or NaN
        lo_rank = np.searchsorted(pooled, thetas, side="left")
        hi_rank = np.searchsorted(pooled, thetas, side="right")
    lo, hi = starts[lo_rank], starts[hi_rank]  # sorted positions below lo are below, from hi on above
    lab = labels[order]
    # w: the number of points of the same class earlier in sorted order
    by_class = np.argsort(lab, kind="stable")
    w = np.empty(m, dtype=np.int64)
    w[by_class] = np.arange(m) - (np.cumsum(sizes) - sizes)[lab[by_class]]
    n = sizes[lab]
    inside = n > 0
    below_max = np.concatenate(([0], np.maximum.accumulate(np.where(inside, w + 1, 0))))
    above_max = np.concatenate((np.maximum.accumulate((n - w)[::-1])[::-1], [0]))
    squares = np.concatenate(([0], np.cumsum(np.where(inside, 4 + 8 * w - 4 * n, 0)))) + sizes @ sizes
    worst = np.maximum(below_max[lo], above_max[hi]).astype(float)
    imbalance = squares[lo].astype(float)
    for t in np.flatnonzero(lo != hi):
        inner = np.bincount(lab[:lo[t]], minlength=sizes.size) + np.bincount(lab[:hi[t]], minlength=sizes.size)
        imbalance[t] = float(((sizes - inner)[:-1] ** 2).sum())
    excess = np.maximum(0.0, worst - target)
    best = int(np.lexsort((imbalance, excess))[0])
    return float(thetas[best]), (float(excess[best]), float(imbalance[best]))


def _search_level(
    vals_matrix: np.ndarray,
    classes: List[np.ndarray],
    target: float,
    rng: random.Random,
    starts: int,
    sweeps: int,
) -> Tuple[np.ndarray, float]:
    """Randomized hyperplane search + local coefficient improvement.

    Returns integer coefficients for the non-constant monomials and a float
    constant (the caller snaps it to a bounded-denominator rational).
    """
    n_mono = vals_matrix.shape[1]
    labels, sizes = _class_labels(classes, vals_matrix.shape[0])
    best_c: Optional[np.ndarray] = None
    best_theta = 0.0
    best_score = (float("inf"), float("inf"))
    for _ in range(starts):
        c = np.array([rng.randint(-9, 9) for _ in range(n_mono - 1)], dtype=float)
        if not c.any():
            c[rng.randrange(n_mono - 1)] = 1.0
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
        if score < best_score:
            best_score = score
            best_c = c.copy()
            best_theta = theta
        if best_score[0] == 0.0 and best_score[1] == 0.0:
            break
    assert best_c is not None
    return np.concatenate(([-best_theta], best_c)), best_score[0]


def _snap(value: float, max_den: int = 1 << 16) -> Fraction:
    return Fraction(value).limit_denominator(max_den)


def build_partition(
    points: Sequence[Vec3],
    levels: int,
    epsilon: float,
    seed: int = 0,
    starts: int = 40,
    sweeps: int = 4,
    retries: int = 6,
) -> PartitionPoly:
    """Build a factored partitioning polynomial with verified balance.

    After level j every sign class holds at most (1 + epsilon) * m / 2^j
    points, re-checked with exact arithmetic; the float search only
    proposes candidates.  Exhausting the retry budget raises PartitionError
    carrying the best achieved epsilon.
    """
    m = len(points)
    if levels < 1:
        raise ValueError("levels must be at least 1")
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must be in (0, 1)")
    if m < 2 ** levels:
        raise ValueError("need at least 2^levels points")
    rng = random.Random(seed)
    factors: List[MPoly] = []
    degrees: List[int] = []
    balances: List[float] = []
    class_map: List[np.ndarray] = [np.arange(m)]
    signs_so_far: List[List[int]] = [[] for _ in range(m)]
    best_eps_seen = float("inf")

    cleared = [_clear(p) for p in points]
    lift_degree = None
    for level in range(1, levels + 1):
        d = least_lift_degree(len(class_map))
        monos = veronese_monomials(d)
        if d != lift_degree:
            vals_matrix = _lift(cleared, monos, d)
            lift_degree = d
        target = (1 + epsilon) * m / (2 ** level)
        accepted = None
        for attempt in range(retries):
            coeffs_f, _ = _search_level(
                vals_matrix, class_map, target * 0.999, rng,
                starts=starts * (attempt + 1), sweeps=sweeps,
            )
            coeffs = [_snap(coeffs_f[0])] + [Fraction(int(c)) for c in coeffs_f[1:]]
            g = _poly_from_coeffs(monos, coeffs)
            if g.is_zero():
                continue
            signs = _signs(cleared, g)
            worst = 0
            for idx in class_map:
                pos = sum(1 for i in idx if signs[i] > 0)
                neg = sum(1 for i in idx if signs[i] < 0)
                worst = max(worst, pos, neg)
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
        new_classes: Dict[Tuple[int, ...], List[int]] = {}
        for idx_arr in class_map:
            for i in idx_arr:
                s = signs[i]
                signs_so_far[i].append(s)
                if s == 0:
                    continue
                key = tuple(signs_so_far[i])
                new_classes.setdefault(key, []).append(i)
        class_map = [np.array(v) for v in new_classes.values()]

    return PartitionPoly(factors, degrees, balances, epsilon, seed)


def classify(points: Sequence[Vec3], pp: PartitionPoly) -> CellAssignment:
    """Exact sign evaluation of every factor at every point."""
    cleared = [_clear(p) for p in points]
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
