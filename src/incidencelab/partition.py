"""Constructive polynomial partitioning at desk scale.

build_partition grows a factored partitioning polynomial level by level:
the level-j factor approximately bisects all 2^(j-1) current sign classes
simultaneously.  Factors are found by randomized hyperplane search in the
Veronese lift of the least degree whose monomial count exceeds the class
count, refined by local coefficient improvement; the float search only
guides the hunt, every accepted factor is re-verified with exact sign
evaluation.  Cells are sign-vector classes: a computable coarsening of the
connected components (each true component lies inside one sign class), and
every report says so via the cell model tag.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .exact import Vec3
from .polynomials import MPoly, RationalCurve, UniPoly, XYZ, restrict_to_curve, sturm_count

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


def _monomial_matrix_exact(points: Sequence[Vec3], monos) -> List[List[Fraction]]:
    rows = []
    for p in points:
        px, py, pz = p.x, p.y, p.z
        row = []
        for (i, j, k) in monos:
            row.append((px ** i) * (py ** j) * (pz ** k))
        rows.append(row)
    return rows


def _poly_from_coeffs(monos, coeffs) -> MPoly:
    return MPoly(XYZ, {mono: c for mono, c in zip(monos, coeffs) if c != 0})


def _best_constant(vals: np.ndarray, classes: List[np.ndarray], target: float) -> Tuple[float, Tuple[float, float]]:
    """Scan constant offsets: thresholds between consecutive pooled values."""
    pooled = np.unique(vals)
    if pooled.size == 0:
        return 0.0, (float("inf"), float("inf"))
    mids = (pooled[:-1] + pooled[1:]) / 2 if pooled.size > 1 else np.array([])
    thetas = np.concatenate(([pooled[0] - 1.0], mids, [pooled[-1] + 1.0]))
    worst = np.zeros(thetas.size)
    imbalance = np.zeros(thetas.size)
    for idx in classes:
        v = np.sort(vals[idx])
        below = np.searchsorted(v, thetas, side="left")
        above = v.size - np.searchsorted(v, thetas, side="right")
        worst = np.maximum(worst, np.maximum(below, above))
        imbalance += (above - below).astype(float) ** 2
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
    best_c: Optional[np.ndarray] = None
    best_theta = 0.0
    best_score = (float("inf"), float("inf"))
    for _ in range(starts):
        c = np.array([rng.randint(-9, 9) for _ in range(n_mono - 1)], dtype=float)
        if not c.any():
            c[rng.randrange(n_mono - 1)] = 1.0
        vals = vals_matrix[:, 1:] @ c
        theta, score = _best_constant(vals, classes, target)
        for _ in range(sweeps):
            improved = False
            order = list(range(n_mono - 1))
            rng.shuffle(order)
            for coord in order:
                for delta in (1.0, -1.0, 4.0, -4.0, 16.0, -16.0):
                    trial = vals + delta * vals_matrix[:, 1 + coord]
                    t_theta, t_score = _best_constant(trial, classes, target)
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

    for level in range(1, levels + 1):
        d = least_lift_degree(len(class_map))
        monos = veronese_monomials(d)
        exact_rows = _monomial_matrix_exact(points, monos)
        vals_matrix = np.array([[float(v) for v in row] for row in exact_rows])
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
            exact_vals = [
                sum(c * row[t] for t, c in enumerate(coeffs) if c != 0)
                for row in exact_rows
            ]
            worst = 0
            for idx in class_map:
                pos = sum(1 for i in idx if exact_vals[i] > 0)
                neg = sum(1 for i in idx if exact_vals[i] < 0)
                worst = max(worst, pos, neg)
            achieved = worst * (2 ** level) / m - 1
            best_eps_seen = min(best_eps_seen, achieved)
            if worst <= target:
                accepted = (g, exact_vals, achieved)
                break
        if accepted is None:
            raise PartitionError(f"level {level} failed balance target", best_eps_seen)
        g, exact_vals, achieved = accepted
        factors.append(g)
        degrees.append(g.total_degree())
        balances.append(achieved)
        new_classes: Dict[Tuple[int, ...], List[int]] = {}
        for idx_arr in class_map:
            for i in idx_arr:
                s = (exact_vals[i] > 0) - (exact_vals[i] < 0)
                signs_so_far[i].append(s)
                if s == 0:
                    continue
                key = tuple(signs_so_far[i])
                new_classes.setdefault(key, []).append(i)
        class_map = [np.array(v) for v in new_classes.values()]

    return PartitionPoly(factors, degrees, balances, epsilon, seed)


def classify(points: Sequence[Vec3], pp: PartitionPoly) -> CellAssignment:
    """Exact sign evaluation of every factor at every point."""
    sign_vectors: List[Tuple[int, ...]] = []
    on_zero: List[bool] = []
    populations: Dict[Tuple[int, ...], int] = {}
    for p in points:
        vals = [f.eval({"x": p.x, "y": p.y, "z": p.z}) for f in pp.factors]
        sv = tuple((v > 0) - (v < 0) for v in vals)
        zero = any(s == 0 for s in sv)
        sign_vectors.append(sv)
        on_zero.append(zero)
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

    Per factor: restrict to the curve and Sturm-count distinct real roots.
    The total counts parameter values where some non-containing factor
    vanishes (shared roots counted once via the product polynomial);
    factors vanishing identically on the curve are flagged contained and
    excluded from the sum.
    """
    per_factor: List[Union[int, str]] = []
    product = UniPoly.const(1)
    any_active = False
    for f in pp.factors:
        restricted = restrict_to_curve(f, curve)
        if restricted.is_zero():
            per_factor.append("contained")
            continue
        per_factor.append(sturm_count(restricted, None, None))
        product = product * restricted
        any_active = True
    total = sturm_count(product, None, None) if any_active else 0
    return CrossingReport(total, per_factor)
