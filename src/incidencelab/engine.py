"""Exact incidence counting with an optional floating-point prefilter.

Both modes first clear each object's denominators once, in one pass over
its coordinates (the kind's ``int_point`` and ``int_curve``); exact mode then
evaluates integer residuals over all m*n pairs.  Prefilter mode screens pairs
with float residuals in tiles and confirms every survivor with the same
integer predicate; the screen may only add candidates, never drop a true
incidence.
Totals are identical in both modes and independent of the thread count
(tiles merge by index).

Each instance kind is one ``Kind`` record in the ``KINDS`` table; the integer
clearing and exact predicate it calls are defined with the kind's types.

The screen writes every residual as a dot product, by the classical lifting
of circles to planes: |p - c|^2 - r^2 = |p|^2 - 2 p.c + (|c|^2 - r^2) is
linear in the lifted point (|p|^2, 1, px, py).  Each point gets one float row
and each curve one float column per residual, so one tile of one residual is
one matrix product:

    tangency  circle     (|p|^2, 1, px, py) . (1, |c|^2 - r^2, -2cx, -2cy)
              direction  (u py, u, px, 1)   . (1, -cy, 1, -cx)
    anchored  sphere     (|p|^2, px, py, pz) . (1, -2cx, -2cy, -2cz)
              plane      (px, py, pz) . (nx, ny, nz) / 2^s
    lines3    p x v - q x v, one column per component of the cross product
              against (px, py, pz, 1); z first, because on a horizontal line
              the x and y components vanish on a whole plane of points

The anchored sphere residual drops |c|^2 - 1, which is exactly 0 since
``AnchoredCircle`` enforces |c| = 1.  The plane column is the primitive
integer normal over 2^s, s the bit length of its largest component, so every
entry is below 1 in magnitude; the residual has the same zeros, and on dyadic
inputs the floats stay exact.

Tolerance.  M >= 1 is the largest magnitude among the float point coordinates
(and u) and the curve's centre or base point, r^2 or direction.  It leaves
out the anchored normal, whose scaled entries are below 1, so the anchored M
is set by the points alone (|c| = 1).  tau is 64*eps*(M^2 + M + 1) for
tangency and 64*eps*(M^2 + 1) otherwise, per residual (eps = FLOAT_EPS).
Every lifted entry is one int / int (or int to float) of the cleared
integers, correctly rounded, so its relative error is at most u = eps/2.
A k-term dot product of such entries, summed in any order
and with or without FMA, is within gamma_(k+2) * S of the exact residual,
where S is the sum of the exact terms' magnitudes and gamma_j = j*u / (1 -
j*u) < 3.0001*eps for j <= 6: one rounding per product and per addition
along any path of the summation tree, plus one per lifted entry (Higham,
Accuracy and Stability of Numerical Algorithms, section 3.1).  With every
coordinate at most M(1 + u):

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
"""

from __future__ import annotations

import math
import threading
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

    def to_json(self, histograms: bool = False) -> dict:
        out = {
            "m": self.m,
            "n": self.n,
            "total": self.total,
            "mode": self.mode,
            "kind": self.kind,
            "tau": None if self.tau is None else list(self.tau),  # None: exact mode or the all-pairs fallback
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
    float_curve: Callable[[tuple], tuple]  # the curve's part of M: center or point, then r2 or direction
    # cleared tuple -> one float row (point) or column (curve) per residual;
    # a residual is the dot product of the two, and vanishes on incidences
    lift_point: Callable[[tuple], Tuple[tuple, ...]]
    lift_curve: Callable[[tuple], Tuple[tuple, ...]]
    tolerance: Callable[[float], Tuple[float, ...]]  # M -> tau per residual


def _float3(t: tuple) -> tuple:  # (a, b, c, d) -> (a/d, b/d, c/d): point coordinates (and u)
    return (t[0] / t[3], t[1] / t[3], t[2] / t[3])


def _lift_dp(P) -> tuple:
    ax, ay, au, d = P
    dd = d * d
    px, py, u = _float3(P)
    return ((ax * ax + ay * ay) / dd, 1.0, px, py), (au * ay / dd, u, px, 1.0)


def _lift_circle(C) -> tuple:
    bx, by, e, rn, rd = C
    ee = e * e
    return ((1.0, ((bx * bx + by * by) * rd - rn * ee) / (ee * rd), -2 * bx / e, -2 * by / e),
            (1.0, -by / e, 1.0, -bx / e))


def _lift_point3_anchored(P) -> tuple:
    ax, ay, az, d = P
    p = _float3(P)
    return ((ax * ax + ay * ay + az * az) / (d * d),) + p, p


def _lift_anchored(C) -> tuple:
    nx, ny, nz, cx, cy, cz, e = C
    k = 1 << max(abs(nx), abs(ny), abs(nz)).bit_length()  # |n_i| / k < 1
    return (1.0, -2 * cx / e, -2 * cy / e, -2 * cz / e), (nx / k, ny / k, nz / k)


def _lift_point3_lines(P) -> tuple:
    return (_float3(P) + (1.0,),) * 3


def _lift_line3(C) -> tuple:
    qx, qy, qz, e, vx, vy, vz = C
    return ((float(vy), float(-vx), 0.0, -(qx * vy - qy * vx) / e),
            (0.0, float(vz), float(-vy), -(qy * vz - qz * vy) / e),
            (float(-vz), 0.0, float(vx), -(qz * vx - qx * vz) / e))


KINDS: Tuple[Kind, ...] = (
    Kind("tangency", DirectedPoint, Circle2, int_dp, int_circle, pair_tangency,
         lambda C: (C[0] / C[2], C[1] / C[2], C[3] / C[4]), _lift_dp, _lift_circle,
         lambda m: (64 * FLOAT_EPS * (m * m + m + 1),) * 2),
    Kind("anchored", Vec3, AnchoredCircle, int_vec3, int_anchored, pair_anchored,
         lambda C: _float3(C[3:]), _lift_point3_anchored, _lift_anchored,
         lambda m: (64 * FLOAT_EPS * (m * m + 1),) * 2),
    Kind("lines3", Vec3, Line3, int_vec3, int_line3, pair_lines3,
         lambda C: _float3(C[:4]) + tuple(map(float, C[4:])), _lift_point3_lines, _lift_line3,
         lambda m: (64 * FLOAT_EPS * (m * m + 1),) * 3),
)


def _kind_of(points: Sequence, curves: Sequence) -> Kind:
    pt_type, cv_type = type(points[0]), type(curves[0])
    if not (all(type(p) is pt_type for p in points) and all(type(c) is cv_type for c in curves)):
        raise ValueError("mixed instance kinds")
    for kind in KINDS:
        if issubclass(pt_type, kind.point_type) and issubclass(cv_type, kind.curve_type):
            return kind
    raise ValueError(f"no instance kind counts {pt_type.__name__} points on {cv_type.__name__} curves")


def _screen(kind: Kind, ipts: list, icvs: list, threads: int, tile: int):
    """Candidate (i, j) index arrays per tile, in tile order, and tau; None
    when the float rows cannot certify a screen (see the module notes)."""
    try:
        mag = max(1.0, max(abs(x) for p in ipts for x in _float3(p)),
                  max(abs(x) for c in icvs for x in kind.float_curve(c)))
    except OverflowError:
        return None
    if mag > SCREEN_MAX:
        return None
    tau = kind.tolerance(mag)
    lifted_pts = [kind.lift_point(p) for p in ipts]
    lifted_cvs = [kind.lift_curve(c) for c in icvs]
    # per residual: point rows (m x w), curve columns (w x n), tau
    factors = [(np.array([lp[k] for lp in lifted_pts]), np.array([lc[k] for lc in lifted_cvs]).T, t)
               for k, t in enumerate(tau)]
    m, n = len(ipts), len(icvs)
    cap = min(tile, m) * min(tile, n)
    buffers = threading.local()  # residual, mask and hit tiles, one set per worker thread
    empty = np.empty(0, dtype=np.intp)

    def work(span):
        i0, i1, j0, j1 = span
        if not hasattr(buffers, "tiles"):
            buffers.tiles = (np.empty(cap), np.empty(cap, dtype=bool), np.empty(cap, dtype=bool))
        res, mask, hit = (buf[:(i1 - i0) * (j1 - j0)].reshape(i1 - i0, j1 - j0) for buf in buffers.tiles)
        for k, (rows, cols, t) in enumerate(factors):
            np.matmul(rows[i0:i1], cols[:, j0:j1], out=res)
            np.abs(res, out=res)
            if k == 0:
                np.less_equal(res, t, out=mask)
            else:
                np.less_equal(res, t, out=hit)
                mask &= hit
            if not mask.any():  # an empty tile skips its remaining products and the index scan
                return empty, empty
        ii, jj = np.divmod(np.flatnonzero(mask), j1 - j0)
        return ii + i0, jj + j0

    tiles = [(i0, min(i0 + tile, m), j0, min(j0 + tile, n))
             for i0 in range(0, m, tile) for j0 in range(0, n, tile)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, tiles)), tau
    return [work(span) for span in tiles], tau


def count(points: Sequence, curves: Sequence, mode: str = "exact",
          threads: int = 1, tile: int = 1024) -> IncidenceReport:
    """Exact incidence count between homogeneous points and curves.

    mode "exact" evaluates the integer predicate on every pair; "prefilter"
    screens with float residuals first and confirms survivors exactly.
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
    screened = _screen(kind, ipts, icvs, threads, tile) if mode == "prefilter" else None
    tau: Optional[Tuple[float, ...]] = None

    if screened is None:
        for i, pf in enumerate(ipts):
            row = 0
            for j, cf in enumerate(icvs):
                if pair(pf, cf):
                    row += 1
                    per_curve[j] += 1
            per_point[i] = row
    else:
        chunks, tau = screened
        for ii, jj in chunks:  # tile order is deterministic
            for i, j in zip(ii.tolist(), jj.tolist()):
                if pair(ipts[i], icvs[j]):
                    per_point[i] += 1
                    per_curve[j] += 1

    return IncidenceReport(m, n, sum(per_point), per_point, per_curve, mode, kind.name,
                           time.perf_counter() - start, tau)


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
