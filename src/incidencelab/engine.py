"""Exact incidence counting with an optional floating-point prefilter.

Both modes first clear each object's denominators once, in one pass over
its coordinates (the kind's ``int_point`` and ``int_curve``); exact mode then
evaluates integer residuals over all m*n pairs.  Prefilter mode screens pairs
with float residuals box by box and confirms every survivor with the same
integer predicate; the screen may only add candidates, never drop a true
incidence.
Totals are identical in both modes and independent of the thread count
(boxes merge in order).

Each instance kind is one ``Kind`` record in the ``KINDS`` table; the integer
clearing and exact predicate it calls are defined with the kind's types.

The screen writes every residual as a dot product, by the classical lifting
of circles to planes: |p - c|^2 - r^2 = |p|^2 - 2 p.c + (|c|^2 - r^2) is
linear in the lifted point (px, py, |p|^2, 1).  Each point gets one float
row, its float coordinates (and u) first, and each curve one float column per
residual, as wide as the row, with a zero where its residual does not read an
entry; so one box of points against the curves that can reach it is one
matrix product per residual:

    tangency  circle     (px, py, u, |p|^2, u py, 1) . (-2cx, -2cy, 0, 1, 0, |c|^2 - r^2)
              direction  (px, py, u, |p|^2, u py, 1) . (1, 0, -cy, 0, 1, -cx)
    anchored  sphere     (px, py, pz, |p|^2) . (-2cx, -2cy, -2cz, 1)
              plane      (px, py, pz, |p|^2) . (nx, ny, nz, 0) / 2^s
    lines3    p x v - q x v, one column per component of the cross product
              against (px, py, pz, 1); z first, because on a horizontal line
              the x and y components vanish on a whole plane of points

The anchored sphere residual drops |c|^2 - 1, which is exactly 0 since
``AnchoredCircle`` enforces |c| = 1.  The plane column is the primitive
integer normal over 2^s, s the bit length of its largest component, so every
entry is below 1 in magnitude; the residual has the same zeros, and on dyadic
inputs the floats stay exact.

Tolerance.  M >= 1 is the largest magnitude among the float point coordinates
(and u) and the curve's centre or base point, r^2 (1 for anchored, which
cannot move M) or direction.  It leaves out the anchored normal, whose scaled
entries are below 1, so the anchored M is set by the points alone (|c| = 1).
tau is 64*eps*(M^2 + M + 1) for tangency and 64*eps*(M^2 + 1) otherwise, per
residual (eps = FLOAT_EPS).
Every lifted entry is one int / int (or int to float) of the cleared
integers, correctly rounded, so its relative error is at most u = eps/2.
A k-term dot product of such entries, summed in any order
and with or without FMA, is within gamma_(k+2) * S of the exact residual,
where S is the sum of the exact terms' magnitudes and gamma_j = j*u / (1 -
j*u) < 3.0001*eps for j <= 6: one rounding per product and per addition
along any path of the summation tree, plus one per lifted entry (Higham,
Accuracy and Stability of Numerical Algorithms, section 3.1).  A zero entry
gives an exact zero product and an exact addition, so k counts only the
nonzero terms and every gamma and tau bound stands.  With every coordinate at
most M(1 + u):

    tangency  circle     S <= 2M^2 + (2M^2 + M) + 4M^2 = 8M^2 + M
              direction  S <= M^2 + M^2 + M + M = 2M^2 + 2M
    anchored  sphere     S <= 3M^2 + 2|p| |c| <= 3M^2 + 2*sqrt(3)*M   (|c| = 1)
              plane      S <= 3M <= 3M^2                  (|n_i| < 2^s)
    lines3    each       S <= M^2 + M^2 + 2M^2 = 4M^2

so the error is below 24.1*eps*M^2 + 3.1*eps*M (tangency circle),
6.1*eps*(M^2 + M) (direction), 9.1*eps*M^2 + 10.5*eps*M <= 14.4*eps*(M^2 + 1)
(sphere, by 2M <= M^2 + 1), 9.1*eps*M <= 9.1*eps*M^2 (plane) and
12.1*eps*M^2 (lines3), each under its tau.  Counting every rounding as a
full eps instead of eps/2 doubles each bound (about 48, 18 and 24 eps*M^2
for the circle, the sphere and lines3 at large M), which still stays under
tau.

For M <= SCREEN_MAX = 2^500 every lifted entry and partial sum is at most
8M^2 + M < 2^1004, so residuals and tau are finite.  Otherwise, or when a
float quantity overflows at conversion, prefilter mode confirms every pair
exactly and reports tau = None.  A scaled normal entry is below 1 whatever
the size of the normal, so no normal can force that fallback.  An entry or
product that falls below 2^-1022 (say |p|^2 with denominators near 10^200,
or a normal component far below the largest) carries an absolute error of at
most 2^-1022 instead of a relative one, even if the BLAS flushes subnormals
to zero.  Times a partner entry of at most 3M^2 and over at most four terms,
that adds less than 2^-1010 * (M^2 + 1), which the floor tau >= 64*eps
absorbs, because M >= 1.

Boxes.  The points are sorted into boxes of at most ``tile`` points:
equal-count strips by x, then equal-count runs by y within each strip.  A
box is the float bounding box [lo, hi] of its points' float coordinates, the
first three entries of their rows (exact, as minima and maxima).  For
tangency and anchored a curve lies on a sphere |x - c|^2 = r^2 in the first d
coordinates (``Kind.sphere``): the circle itself in (px, py), or the unit
sphere about the anchored centre in (px, py, pz).  A box is screened only
against the spheres it can reach, those with

    near = sum over axes of max(lo - c, c - hi, 0)^2 <= r2 + sigma
    far  = sum over axes of max(c - lo, hi - c)^2    >= r2 - sigma

with sigma = tau of the first residual; each strip's bounding box is tested
the same way first, and its boxes test only the spheres it kept.  lines3
screens every box against every line: a bounding-ball cull kept 83-93 % of
the st-grid pairs.

The cull keeps every incidence.  Let P, C and R^2 be exact and p = fl(P),
c = fl(C), r2 = fl(R^2) the floats (r2 is 1 for anchored), so |p_i - P_i| <=
u|P_i|, the same for c, and |p_i|, |c_i| <= M, R^2 <= M(1 + u) (tangency:
M bounds r^2) or R^2 = 1 (anchored).  With a = P - C and b = p - c,
|b_i - a_i| <= 2uM(1 + u) and |b_i + a_i| <= 4M(1 + u)^2, so on d axes
(2 for tangency, 3 for anchored) | |b|^2 - |a|^2 | < 4.01*d*eps*M^2.  The box
holds p, so the exact near and far of the float box bracket |b|^2.  Computed
near and far are sums of at most three squares of one correctly rounded
difference each (a subnormal difference is exact; max and min are exact,
and rounding is monotone, so min(fl(x), fl(y)) = fl(min(x, y))): a relative
error of at most gamma_4 < 2.01*eps on non-negative terms, plus at most
2^-1022 per square that falls below the normal range, even if subnormals
are flushed to zero.  The comparisons round r2 +- sigma once more (u).  At
an incidence |a|^2 = R^2, so the test keeps the pair when

    sigma > (gamma_4 + 2u) R^2 + 4.01*d*eps*M^2 (1 + gamma_4) + 2^-1020,

which is below 8.1*eps*M^2 + 3.1*eps*M + 2^-1020 (tangency) and 12.1*eps*M^2
+ 3.1*eps + 2^-1020 (anchored), each under 64*eps*(M^2 + M + 1) and
64*eps*(M^2 + 1), the first tau.  The 2^-1020 from underflow (coordinates
near 10^-200) is far below the floor sigma >= 64*eps.  Counting every
rounding as a full eps doubles the bound, still under tau.  For M <=
SCREEN_MAX every square is at most (2M)^2 <= 2^1002 and their sum below
2^1004, so near, far and r2 +- sigma stay finite.  A strip contains each of
its boxes, so its test never drops what a box test would keep.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from .anchored import AnchoredCircle, int_anchored, pair_anchored
from .dual3 import Line3, int_line3, pair_lines3
from .exact import Vec3, int_vec3
from .tangency import Circle2, DirectedPoint, int_circle, int_dp, pair_tangency

FLOAT_EPS = float(np.finfo(np.float64).eps)
SCREEN_MAX = 2.0 ** 500


@dataclass
class IncidenceReport:
    m: int
    n: int
    total: int
    per_point: List[int]
    per_curve: List[int]
    mode: str
    kind: str
    seconds: float
    tau: Optional[Tuple[float, ...]] = None
    screened: Optional[int] = None  # pairs whose residuals were computed
    candidates: Optional[int] = None  # pairs sent to the exact confirm

    def to_json(self, histograms: bool = False) -> dict:
        out = {
            "m": self.m,
            "n": self.n,
            "total": self.total,
            "mode": self.mode,
            "kind": self.kind,
            # tau, screened, candidates: None in exact mode or the all-pairs fallback
            "tau": None if self.tau is None else list(self.tau),
            "screened": self.screened,
            "candidates": self.candidates,
            "seconds": self.seconds,
        }
        if histograms:
            out["per_point"] = self.per_point
            out["per_curve"] = self.per_curve
        return out

    def csv_row(self) -> str:
        return f"{self.m},{self.n},{self.total},{self.mode},{self.seconds:.6f}"


CSV_HEADER = "m,n,total,mode,seconds"


@dataclass(frozen=True)
class Kind:
    """One instance kind: the point and curve types it counts, which also
    serialize its instances."""

    name: str
    point_type: type
    curve_type: type
    int_point: Callable[[Any], tuple]  # object -> integer-cleared tuple
    int_curve: Callable[[Any], tuple]
    pair: Callable[[tuple, tuple], bool]  # exact predicate on cleared tuples
    # the curve's part of M: its centre or base point, then r^2 or direction
    float_curve: Callable[[tuple], tuple]
    # cleared point -> one float row, its float coordinates (and u) first: the
    # point's part of M, and what boxes are cut by; cleared curve -> one column
    # per residual, as wide as the row; a residual is their dot product, and
    # vanishes on incidences
    lift_point: Callable[[tuple], tuple]
    lift_curve: Callable[[tuple], Tuple[tuple, ...]]
    tolerance: Callable[[float], Tuple[float, ...]]  # M -> tau per residual
    # d: the box cull takes each curve's sphere from float_curve, its centre in
    # the first d entries and r^2 next; 0 screens every box against every curve
    sphere: int


def _lift_dp(P) -> tuple:
    ax, ay, au, d = P
    dd = d * d
    return (ax / d, ay / d, au / d, (ax * ax + ay * ay) / dd, au * ay / dd, 1.0)


def _lift_circle(C) -> tuple:
    bx, by, e, rn, rd = C
    ee = e * e
    return ((-2 * bx / e, -2 * by / e, 0.0, 1.0, 0.0, ((bx * bx + by * by) * rd - rn * ee) / (ee * rd)),
            (1.0, 0.0, -by / e, 0.0, 1.0, -bx / e))


def _lift_point3_anchored(P) -> tuple:
    ax, ay, az, d = P
    return (ax / d, ay / d, az / d, (ax * ax + ay * ay + az * az) / (d * d))


def _lift_anchored(C) -> tuple:
    nx, ny, nz, cx, cy, cz, e = C
    k = 1 << max(abs(nx), abs(ny), abs(nz)).bit_length()  # |n_i| / k < 1
    return (-2 * cx / e, -2 * cy / e, -2 * cz / e, 1.0), (nx / k, ny / k, nz / k, 0.0)


def _lift_point3_lines(P) -> tuple:
    ax, ay, az, d = P
    return (ax / d, ay / d, az / d, 1.0)


def _lift_line3(C) -> tuple:
    qx, qy, qz, e, vx, vy, vz = C
    return ((float(vy), float(-vx), 0.0, -(qx * vy - qy * vx) / e),
            (0.0, float(vz), float(-vy), -(qy * vz - qz * vy) / e),
            (float(-vz), 0.0, float(vx), -(qz * vx - qx * vz) / e))


KINDS: Tuple[Kind, ...] = (
    Kind("tangency", DirectedPoint, Circle2, int_dp, int_circle, pair_tangency,
         lambda C: (C[0] / C[2], C[1] / C[2], C[3] / C[4]), _lift_dp, _lift_circle,
         lambda m: (64 * FLOAT_EPS * (m * m + m + 1),) * 2, 2),
    Kind("anchored", Vec3, AnchoredCircle, int_vec3, int_anchored, pair_anchored,
         lambda C: (C[3] / C[6], C[4] / C[6], C[5] / C[6], 1.0), _lift_point3_anchored, _lift_anchored,
         lambda m: (64 * FLOAT_EPS * (m * m + 1),) * 2, 3),
    Kind("lines3", Vec3, Line3, int_vec3, int_line3, pair_lines3,
         lambda C: (C[0] / C[3], C[1] / C[3], C[2] / C[3]) + tuple(map(float, C[4:])),
         _lift_point3_lines, _lift_line3,
         lambda m: (64 * FLOAT_EPS * (m * m + 1),) * 3, 0),
)


def _kind_of(points: Sequence, curves: Sequence) -> Kind:
    pt_type, cv_type = type(points[0]), type(curves[0])
    if not (all(type(p) is pt_type for p in points) and all(type(c) is cv_type for c in curves)):
        raise ValueError("mixed instance kinds")
    for kind in KINDS:
        if issubclass(pt_type, kind.point_type) and issubclass(cv_type, kind.curve_type):
            return kind
    raise ValueError(f"no instance kind counts {pt_type.__name__} points on {cv_type.__name__} curves")


def _meets(lo, hi, shell):
    """Mask of the spheres that the box [lo, hi] can reach.  ``shell`` holds
    one column per sphere: its centre c (d rows), then r2 - sigma and r2 +
    sigma.  A sphere is kept when min |x - c|^2 <= r2 + sigma and
    max |x - c|^2 >= r2 - sigma over the box (see the module notes)."""
    d = len(shell) - 2
    below, above = lo[:d, None] - shell[:d], shell[:d] - hi[:d, None]  # at most one is positive
    far = np.minimum(below, above)  # -max(c - lo, hi - c)
    near = np.maximum(below, above, out=below)
    np.maximum(near, 0.0, out=near)
    near *= near
    far *= far
    return (near.sum(axis=0) <= shell[-1]) & (far.sum(axis=0) >= shell[-2])


def _boxes(x, y, size: int):
    """Point order, box starts and strips: equal-count strips by x, each cut
    into equal-count runs (boxes) of at most ``size`` points by y.  Strip s
    holds boxes strips[s] to strips[s + 1] - 1."""
    nbox = -(-len(x) // size)
    order, starts, strips = [], [0], [0]
    for strip in np.array_split(np.argsort(x, kind="stable"), math.isqrt(nbox - 1) + 1):
        strip = strip[np.argsort(y[strip], kind="stable")]
        for run in np.array_split(strip, -(-len(strip) // size)):
            order.append(run)
            starts.append(starts[-1] + len(run))
        strips.append(len(starts) - 1)
    return np.concatenate(order), starts, strips


def _screen(kind: Kind, ipts: list, icvs: list, threads: int, tile: int):
    """Candidate (i, j) index arrays per box, in box order, tau and the number
    of pairs screened; None when the float rows cannot certify a screen (see
    the module notes)."""
    try:
        shapes = np.array([kind.float_curve(c) for c in icvs])
        pts = np.array([kind.lift_point(p) for p in ipts])
        lifted_cvs = [kind.lift_curve(c) for c in icvs]
    except OverflowError:
        return None
    mag = max(1.0, float(np.abs(pts[:, :3]).max()), float(np.abs(shapes).max()))
    if mag > SCREEN_MAX:
        return None
    tau = kind.tolerance(mag)
    order, starts, strips = _boxes(pts[:, 0], pts[:, 1], tile)
    pts = pts[order]  # point rows (m x w) in box order
    lo, hi = (f.reduceat(pts[:, :3], starts[:-1], axis=0) for f in (np.minimum, np.maximum))
    # per residual: curve columns (n x w), tau
    factors = [(np.array([lc[k] for lc in lifted_cvs]), t) for k, t in enumerate(tau)]
    shell = None
    if kind.sphere:
        r2 = shapes[:, kind.sphere]
        shell = np.vstack([shapes[:, :kind.sphere].T, r2 - tau[0], r2 + tau[0]])

    def work(s):
        """Candidate chunks and pairs screened in the boxes of strip s, each
        box against the curves that reach the strip and then the box."""
        b0, b1 = strips[s], strips[s + 1]
        if shell is None:
            near = np.arange(len(icvs))
        else:
            near = np.flatnonzero(_meets(lo[b0:b1].min(axis=0), hi[b0:b1].max(axis=0), shell))
            sub = shell.take(near, axis=1)
        cap = max(starts[b + 1] - starts[b] for b in range(b0, b1)) * len(near)
        res, mask, hit = np.empty(cap), np.empty(cap, dtype=bool), np.empty(cap, dtype=bool)
        chunks, screened = [], 0
        for b in range(b0, b1):
            i0, i1 = starts[b], starts[b + 1]
            keep = near if shell is None else near[_meets(lo[b], hi[b], sub)]
            screened += (i1 - i0) * len(keep)
            r, msk, h = (buf[:(i1 - i0) * len(keep)].reshape(i1 - i0, len(keep)) for buf in (res, mask, hit))
            for f, (cvs, t) in enumerate(factors):
                np.matmul(pts[i0:i1], (cvs if shell is None else cvs.take(keep, axis=0)).T, out=r)
                np.abs(r, out=r)
                np.less_equal(r, t, out=msk if f == 0 else h)
                if f:
                    msk &= h
                if not msk.any():  # an empty box skips its remaining products and the index scan
                    break
            else:
                ii, jj = np.divmod(np.flatnonzero(msk), len(keep))
                chunks.append((order[ii + i0], keep[jj]))
        return chunks, screened

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(work, range(len(strips) - 1)))
    else:
        done = [work(s) for s in range(len(strips) - 1)]
    return [chunk for chunks, _ in done for chunk in chunks], tau, sum(n for _, n in done)


def count(points: Sequence, curves: Sequence, mode: str = "exact",
          threads: int = 1, tile: int = 64) -> IncidenceReport:
    """Exact incidence count between homogeneous points and curves.

    mode "exact" evaluates the integer predicate on every pair; "prefilter"
    screens with float residuals first and confirms survivors exactly.  The
    screen cuts the points into boxes of at most ``tile`` points and runs
    its strips of boxes on ``threads`` threads.
    """
    if mode not in ("exact", "prefilter"):
        raise ValueError(f"unknown mode {mode}")
    start = time.perf_counter()
    m, n = len(points), len(curves)
    per_point, per_curve = [0] * m, [0] * n
    if not points or not curves:
        return IncidenceReport(m, n, 0, per_point, per_curve, mode, "empty", time.perf_counter() - start)

    kind = _kind_of(points, curves)
    pair = kind.pair
    ipts = [kind.int_point(p) for p in points]
    icvs = [kind.int_curve(c) for c in curves]
    screen = _screen(kind, ipts, icvs, threads, tile) if mode == "prefilter" else None
    tau: Optional[Tuple[float, ...]] = None
    screened = candidates = None

    if screen is None:
        for i, pf in enumerate(ipts):
            row = 0
            for j, cf in enumerate(icvs):
                if pair(pf, cf):
                    row += 1
                    per_curve[j] += 1
            per_point[i] = row
    else:
        chunks, tau, screened = screen
        candidates = 0
        for ii, jj in chunks:  # box order is deterministic
            candidates += len(ii)
            for i, j in zip(ii.tolist(), jj.tolist()):
                if pair(ipts[i], icvs[j]):
                    per_point[i] += 1
                    per_curve[j] += 1

    return IncidenceReport(m, n, sum(per_point), per_point, per_curve, mode, kind.name,
                           time.perf_counter() - start, tau, screened, candidates)


def t_rich_points(points: Sequence, curves: Sequence, t: int,
                  mode: str = "exact", threads: int = 1) -> List:
    """The points incident to at least t curves."""
    if t < 1:
        raise ValueError("t must be at least 1")
    report = count(points, curves, mode=mode, threads=threads)
    return [p for p, deg in zip(points, report.per_point) if deg >= t]


def bound_ratio(report: IncidenceReport) -> float:
    """total / (m^(3/5) n^(3/5) + m + n), the shape of the tangency bound."""
    m, n = report.m, report.n
    denom = (m ** 0.6) * (n ** 0.6) + m + n
    return report.total / denom


def exponent_fit(series: Sequence[Tuple[int, int, int]]) -> Tuple[float, float, float]:
    """Least-squares slope of log(total) against log(max(m, n)).

    Built for scaling families with m = n (or one side pinned); returns
    (slope, intercept, sum of squared residuals).
    """
    xs, ys = [], []
    for m, n, total in series:
        if total > 0:
            xs.append(math.log(max(m, n)))
            ys.append(math.log(total))
    if len(xs) < 3:
        raise ValueError("need at least 3 series points with positive totals")
    if max(xs) == min(xs):
        raise ValueError("degenerate series: no scale variation")
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    rss = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    return slope, intercept, rss
