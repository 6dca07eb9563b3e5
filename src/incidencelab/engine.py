"""Exact incidence counting with an optional floating-point prefilter.

Exact mode clears denominators once per object and evaluates integer
residuals over all m*n pairs.  Prefilter mode screens pairs with float
residuals in cache-friendly tiles (numpy) and confirms every survivor with
the same integer predicate; the screen may only add candidates, never drop
a true incidence.  Totals are identical in both modes and independent of
the thread count (tiles merge by index).

Each instance kind is one ``Kind`` record in the ``KINDS`` table.  Float
rows divide out the integer-cleared tuples (int / int rounds correctly, so
each entry is within eps relative error).  Every residual takes fewer than
16 flops on them, so its forward error is below the record's tolerance:
64*eps times a degree-2 polynomial in M, the largest row magnitude (at
least 1); the generous constant keeps the bound sound without tracking each
rounding.  No intermediate value of a residual exceeds 16*M^2, so for
M <= SCREEN_MAX residuals and tau are finite; otherwise, or when a row
overflows the float range, prefilter mode confirms every pair exactly and
reports tau = None.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from .anchored import AnchoredCircle
from .dual3 import Line3
from .exact import Vec3, clear_denominators
from .tangency import Circle2, DirectedPoint

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
    float_curve: Callable[[tuple], tuple]  # center or point, then normal or direction
    # tile of point rows x tile of curve rows -> arrays that vanish on incidences
    residuals: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, ...]]
    tolerance: Callable[[float], Tuple[float, ...]]  # M -> tau per residual


def _int_dp(dp: DirectedPoint) -> Tuple[int, int, int, int]:
    return clear_denominators(dp.p.x, dp.p.y, dp.u)


def _int_circle(c: Circle2) -> Tuple[int, int, int, int, int]:
    return clear_denominators(c.center.x, c.center.y) + (c.r2.numerator, c.r2.denominator)


def _int_point3(v: Vec3) -> Tuple[int, int, int, int]:
    return clear_denominators(v.x, v.y, v.z)


def _int_anchored(g: AnchoredCircle) -> Tuple[int, ...]:
    return (int(g.n.x), int(g.n.y), int(g.n.z)) + _int_point3(g.c)


def _int_line3(line: Line3) -> Tuple[int, ...]:
    v = line.direction
    return _int_point3(line.point) + (int(v.x), int(v.y), int(v.z))


def _pair_tangency(P, C) -> bool:
    ax, ay, au, d = P
    bx, by, e, rn, rd = C
    wx = ax * e - bx * d
    wy = ay * e - by * d
    if au * wy + d * wx != 0:
        return False
    de = d * e
    return rd * (wx * wx + wy * wy) == rn * de * de


def _pair_anchored(P, C) -> bool:
    ax, ay, az, d = P
    nx, ny, nz, cx, cy, cz, e = C
    if nx * ax + ny * ay + nz * az != 0:
        return False
    wx = ax * e - cx * d
    wy = ay * e - cy * d
    wz = az * e - cz * d
    de = d * e
    return wx * wx + wy * wy + wz * wz == de * de


def _pair_lines3(P, C) -> bool:
    ax, ay, az, d = P
    qx, qy, qz, e, vx, vy, vz = C
    wx = ax * e - qx * d
    wy = ay * e - qy * d
    wz = az * e - qz * d
    return (
        wy * vz - wz * vy == 0
        and wz * vx - wx * vz == 0
        and wx * vy - wy * vx == 0
    )


def _float3(t: tuple) -> tuple:  # (a, b, c, d) -> (a/d, b/d, c/d); every point row
    return (t[0] / t[3], t[1] / t[3], t[2] / t[3])


def _res_tangency(p: np.ndarray, c: np.ndarray) -> tuple:
    dx, dy = p[:, 0:1] - c[:, 0], p[:, 1:2] - c[:, 1]
    return dx * dx + dy * dy - c[:, 2], p[:, 2:3] * dy + dx


def _res_anchored(p: np.ndarray, c: np.ndarray) -> tuple:
    wx, wy, wz = (p[:, k:k + 1] - c[:, k] for k in range(3))
    dot = p[:, 0:1] * c[:, 3] + p[:, 1:2] * c[:, 4] + p[:, 2:3] * c[:, 5]
    return wx * wx + wy * wy + wz * wz - 1.0, dot


def _res_lines3(p: np.ndarray, c: np.ndarray) -> tuple:
    wx, wy, wz = (p[:, k:k + 1] - c[:, k] for k in range(3))
    vx, vy, vz = c[:, 3], c[:, 4], c[:, 5]
    return wy * vz - wz * vy, wz * vx - wx * vz, wx * vy - wy * vx


KINDS: Tuple[Kind, ...] = (
    Kind("tangency", DirectedPoint, Circle2, _int_dp, _int_circle, _pair_tangency,
         lambda C: (C[0] / C[2], C[1] / C[2], C[3] / C[4]), _res_tangency,
         lambda m: (64 * FLOAT_EPS * (m * m + m + 1),) * 2),
    Kind("anchored", Vec3, AnchoredCircle, _int_point3, _int_anchored, _pair_anchored,
         lambda C: _float3(C[3:]) + tuple(map(float, C[:3])), _res_anchored,
         lambda m: (64 * FLOAT_EPS * (m * m + 1),) * 2),
    Kind("lines3", Vec3, Line3, _int_point3, _int_line3, _pair_lines3,
         lambda C: _float3(C[:4]) + tuple(map(float, C[4:])), _res_lines3,
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
        P = np.array([_float3(p) for p in ipts])
        C = np.array([kind.float_curve(c) for c in icvs])
    except OverflowError:
        return None
    mag = max(1.0, float(np.max(np.abs(P))), float(np.max(np.abs(C))))
    if mag > SCREEN_MAX:
        return None
    tau = kind.tolerance(mag)

    def work(span):
        i0, i1, j0, j1 = span
        res = kind.residuals(P[i0:i1], C[j0:j1])
        mask = np.abs(res[0]) <= tau[0]
        for r, t in zip(res[1:], tau[1:]):
            mask &= np.abs(r) <= t
        ii, jj = np.nonzero(mask)
        return ii + i0, jj + j0

    m, n = len(ipts), len(icvs)
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
