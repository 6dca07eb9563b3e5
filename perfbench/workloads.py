"""The four benchmark workloads.

Each workload builds a small pool of inputs from the workload seed during
set-up; job k runs on input k mod pool size.  ``job`` is the timed part and
calls only public functions of the program, each inside a span.  ``check``
is the correctness gate, run after the job and outside its timing.
``counts`` are the exact figures of a job, which must repeat whenever the
same input runs again.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass

from incidencelab import anchored, dual3, engine, generators, partition, polynomials, tangency
from incidencelab.exact import Vec2, Vec3
from incidencelab.generators import GenSpec, rand_rat

import gate
from spans import Tracer


def sub_seed(workload: str, seed: int, index: int) -> int:
    """Seed of input ``index`` of a workload; depends only on its arguments."""
    return random.Random(f"{workload}/{seed}/{index}").randrange(1 << 31)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class CountSparse:
    """Screen-bound counting: a random tangency instance with no incidences,
    so every pair is screened by the float prefilter and none is confirmed."""

    name = "count-sparse"
    pool = 8
    size = 8000
    block = 400  # points x curves compared between exact and prefilter mode

    def sizes(self) -> dict:
        return {"kind": "random-tangency", "m": self.size, "n": self.size, "mode": "prefilter",
                "threads": 1, "exact_block": self.block}

    def inputs(self, seed: int, tracer) -> list:
        return [GenSpec("random-tangency", self.size, self.size, seed=sub_seed(self.name, seed, i))
                for i in range(self.pool)]

    def warm_up(self) -> None:
        inst, _ = generators.gen(GenSpec("random-tangency", 200, 200, seed=1))
        engine.count(inst.points, inst.curves, mode="prefilter")

    def job(self, spec, tracer) -> dict:
        with tracer.span("generators.gen", kind="tangency"):
            inst, planted = generators.gen(spec)
        with tracer.span("engine.count", mode="prefilter", kind="tangency"):
            report = engine.count(inst.points, inst.curves, mode="prefilter", threads=1)
        return {"instance": inst, "planted": planted, "report": report}

    def check(self, spec, out, tracer) -> list[str]:
        inst, report = out["instance"], out["report"]
        problems = gate.histograms(report) + gate.total_vs_planted(report, out["planted"], exact=False)
        pts, cvs = inst.points[: self.block], inst.curves[: self.block]
        problems += gate.same_report(engine.count(pts, cvs, mode="exact"),
                                     engine.count(pts, cvs, mode="prefilter"), "sub-block exact vs prefilter")
        if tracer.enabled:
            with tracer.span("engine.count", mode="prefilter", kind="tangency", threads=nproc()):
                threaded = engine.count(inst.points, inst.curves, mode="prefilter", threads=nproc())
            problems += gate.same_report(report, threaded, f"1 vs {nproc()} threads")
        return problems

    def counts(self, spec, out) -> dict:
        report = out["report"]
        return {"generators.objects": report.m + report.n, "generators.planted": out["planted"],
                "engine.pairs": report.m * report.n, "engine.incidences": report.total}

    def layer(self, spec, out) -> dict:
        return {"engine.tau": out["report"].tau[0]}


class CountDense:
    """Confirm-bound counting: an st-grid line instance where every candidate
    is a true incidence, and an anchored-planted instance counted in both
    modes (its certified tolerance is usually huge, so the screen passes
    nearly every pair)."""

    name = "count-dense"
    pool = 4
    grid = 4400
    anchored_m, anchored_n = 1500, 300

    def sizes(self) -> dict:
        return {"lines3": {"kind": "st-grid-horizontal-lines", "m": self.grid, "n": self.grid, "mode": "prefilter"},
                "anchored": {"kind": "anchored-planted", "m": self.anchored_m, "n": self.anchored_n,
                             "mode": ["exact", "prefilter"]}}

    def inputs(self, seed: int, tracer) -> list:
        out = []
        for i in range(self.pool):
            s = sub_seed(self.name, seed, i)
            out.append((GenSpec("st-grid-horizontal-lines", self.grid, self.grid, seed=s),
                        GenSpec("anchored-planted", self.anchored_m, self.anchored_n, seed=s)))
        return out

    def warm_up(self) -> None:
        for spec in (GenSpec("st-grid-horizontal-lines", 100, 100, seed=1),
                     GenSpec("anchored-planted", 60, 20, seed=1)):
            inst, _ = generators.gen(spec)
            engine.count(inst.points, inst.curves, mode="prefilter")
            engine.count(inst.points, inst.curves, mode="exact")

    def job(self, specs, tracer) -> dict:
        grid_spec, anchored_spec = specs
        with tracer.span("generators.gen", kind="lines3"):
            grid, grid_planted = generators.gen(grid_spec)
        with tracer.span("engine.count", mode="prefilter", kind="lines3"):
            grid_report = engine.count(grid.points, grid.curves, mode="prefilter")
        with tracer.span("generators.gen", kind="anchored"):
            anch, anch_planted = generators.gen(anchored_spec)
        with tracer.span("engine.count", mode="exact", kind="anchored"):
            exact = engine.count(anch.points, anch.curves, mode="exact")
        with tracer.span("engine.count", mode="prefilter", kind="anchored"):
            pre = engine.count(anch.points, anch.curves, mode="prefilter")
        return {"grid": grid_report, "grid_planted": grid_planted,
                "exact": exact, "prefilter": pre, "anchored_planted": anch_planted}

    def check(self, specs, out, tracer) -> list[str]:
        problems = []
        for key in ("grid", "exact", "prefilter"):
            problems += gate.histograms(out[key])
        problems += gate.total_vs_planted(out["grid"], out["grid_planted"], exact=True)
        problems += gate.total_vs_planted(out["exact"], out["anchored_planted"], exact=False)
        problems += gate.same_report(out["exact"], out["prefilter"], "anchored exact vs prefilter")
        return problems

    def counts(self, specs, out) -> dict:
        grid, anch = out["grid"], out["exact"]
        return {"generators.objects": grid.m + grid.n + anch.m + anch.n,
                "generators.planted": out["grid_planted"] + out["anchored_planted"],
                "engine.pairs": grid.m * grid.n + anch.m * anch.n,
                "engine.incidences": grid.total + anch.total}

    def layer(self, specs, out) -> dict:
        return {"engine.tau": out["prefilter"].tau[0], "engine.tau.lines3": out["grid"].tau[0]}


@dataclass
class PartitionInput:
    points: list
    curves: list
    seed: int
    planted: int


class Partition:
    """The ACCEPT-07 shape: a 4-level partition of 4096 rational points,
    then lifted circles streamed through the exact crossing count."""

    name = "partition"
    pool = 2
    points = 4096
    levels = 4
    epsilon = 0.1
    curves = 12
    circle_bound = 10  # numerator and denominator bound of lifted circles

    def sizes(self) -> dict:
        return {"points": self.points, "coord_bound": 100, "den_bound": 100, "levels": self.levels,
                "epsilon": self.epsilon, "curves_per_job": self.curves, "circle_bound": self.circle_bound}

    def inputs(self, seed: int, tracer) -> list:
        out = []
        for i in range(self.pool):
            s = sub_seed(self.name, seed, i)
            with tracer.span("generators.gen", kind="tangency"):
                inst, planted = generators.gen(GenSpec("random-tangency", self.points, 0, seed=s))
            pts = [Vec3(p.p.x, p.p.y, p.u) for p in inst.points]
            rng = random.Random(s)
            curves = []
            for _ in range(self.curves):
                circle, base = _random_circle(rng, self.circle_bound)
                with tracer.span("anchored.lifted_param"):
                    curves.append(anchored.lifted_param(anchored.LiftedCircle(circle), base))
            out.append(PartitionInput(pts, curves, s, planted))
        return out

    def warm_up(self) -> None:
        rng = random.Random(1)
        pts = [Vec3(rand_rat(rng, 100, 100), rand_rat(rng, 100, 100), rand_rat(rng, 100, 100)) for _ in range(64)]
        pp = partition.build_partition(pts, 2, 0.5, seed=1)
        partition.classify(pts, pp)
        circle, base = _random_circle(rng, self.circle_bound)
        partition.curve_crossings(anchored.lifted_param(anchored.LiftedCircle(circle), base), pp)

    def job(self, inp: PartitionInput, tracer) -> dict:
        with tracer.span("partition.build_partition"):
            pp = partition.build_partition(inp.points, self.levels, self.epsilon, seed=inp.seed)
        with tracer.span("partition.classify"):
            cells = partition.classify(inp.points, pp)
        reports, latencies = [], []
        for curve in inp.curves:
            start = time.perf_counter()
            with tracer.span("partition.curve_crossings"):
                reports.append(partition.curve_crossings(curve, pp))
            latencies.append(time.perf_counter() - start)
        return {"poly": pp, "cells": cells, "crossings": reports, "latencies": latencies}

    def check(self, inp: PartitionInput, out, tracer) -> list[str]:
        pp = out["poly"]
        problems = gate.partition_balance(out["cells"], len(inp.points), self.levels, self.epsilon)
        for report in out["crossings"]:
            problems += gate.crossings_bound(report, pp.degree_budget)
        if tracer.enabled:
            out["product"] = []
            for curve, report in zip(inp.curves, out["crossings"]):
                per_factor, total, product = _rederive_crossings(curve, pp, tracer)
                problems += gate.same_crossings(report, per_factor, total)
                out["product"].append(product)
        return problems

    def counts(self, inp: PartitionInput, out) -> dict:
        pp, cells = out["poly"], out["cells"]
        return {"generators.objects": len(inp.points), "generators.planted": inp.planted,
                "partition.degree_budget": pp.degree_budget,
                "partition.max_cell": cells.max_population(),
                "partition.zero_set_points": sum(cells.on_zero_set),
                "partition.crossings_total": sum(r.total for r in out["crossings"]),
                "partition.contained": sum(len(r.contained_factors()) for r in out["crossings"])}

    def layer(self, inp: PartitionInput, out) -> dict:
        products = out.get("product", [])
        return {"partition.balance_eps": max(out["poly"].balances),
                "polynomials.product_degree": max((p.degree() for p in products), default=0),
                "polynomials.product_bits": max((_coeff_bits(p) for p in products), default=0)}


def _random_circle(rng, bound: int):
    """Circle through a rational point, as in the ACCEPT-07 stream."""
    while True:
        w = Vec2(rand_rat(rng, bound, bound), rand_rat(rng, bound, bound))
        p = Vec2(rand_rat(rng, bound, bound), rand_rat(rng, bound, bound))
        if p != w:
            return tangency.Circle2(w, (p - w).norm2()), p


def _rederive_crossings(curve, pp, tracer):
    """The crossing count rebuilt from the public polynomial calls."""
    per_factor = []
    product = polynomials.UniPoly.const(1)
    active = False
    for f in pp.factors:
        with tracer.span("polynomials.restrict_to_curve"):
            restricted = polynomials.restrict_to_curve(f, curve)
        if restricted.is_zero():
            per_factor.append("contained")
            continue
        with tracer.span("polynomials.sturm_count", of="factor"):
            per_factor.append(polynomials.sturm_count(restricted, None, None))
        product = product * restricted
        active = True
    total = 0
    if active:
        with tracer.span("polynomials.sturm_count", of="product"):
            total = polynomials.sturm_count(product, None, None)
    return per_factor, total, product


def _coeff_bits(p) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in p.coeffs), default=0)


@dataclass
class RichInput:
    dps: list
    planted: list  # (PowerPlane, member indices)
    generated: int


class RichPlanes:
    """Rich-plane discovery over directed points: tangent points sampled on a
    few circles (pairs on one circle span planes, driving the membership
    scan), radial points planted on power circles (the rich planes to
    recover) and random noise points."""

    name = "rich-planes"
    pool = 3
    q = 3
    sampled, circles = 100, 5
    power_circles, per_power_circle = 4, 8
    noise = 18

    def sizes(self) -> dict:
        return {"q": self.q, "points": self.sampled + self.power_circles * self.per_power_circle + self.noise,
                "circle_sampled": {"m": self.sampled, "n": self.circles},
                "power_circles": self.power_circles, "per_power_circle": self.per_power_circle,
                "noise": self.noise}

    def inputs(self, seed: int, tracer) -> list:
        out = []
        for i in range(self.pool):
            with tracer.span("tangency.inputs"):
                out.append(self._build(sub_seed(self.name, seed, i), tracer))
        return out

    def _build(self, s: int, tracer) -> RichInput:
        rng = random.Random(s)
        with tracer.span("generators.gen", kind="tangency"):
            inst, _ = generators.gen(GenSpec("circle-sampled", self.sampled, self.circles, seed=s))
        dps = list(inst.points)
        groups = []
        while len(groups) < self.power_circles:
            w = Vec2(rand_rat(rng, 100, 100), rand_rat(rng, 100, 100))
            a, b = rand_rat(rng, 50, 20), rand_rat(rng, 50, 20)
            rho = a * a + b * b
            if rho == 0:
                continue
            circle, base = tangency.Circle2(w, rho), w + Vec2(a, b)
            radial = {}
            while len(radial) < self.per_power_circle:
                p = tangency.rotate_on_circle(circle, base, rand_rat(rng, 10, 20))
                if p.x != w.x:
                    radial[p] = tangency.DirectedPoint(p, (p.y - w.y) / (p.x - w.x))
            groups.append((dual3.encode_power(w, rho), list(radial.values())))
        for _ in range(self.noise):
            dps.append(tangency.DirectedPoint(Vec2(rand_rat(rng, 100, 100), rand_rat(rng, 100, 100)),
                                              rand_rat(rng, 100, 100)))
        planted = []
        for plane, members in groups:
            planted.append((plane, list(range(len(dps), len(dps) + len(members)))))
            dps.extend(members)
        order = list(range(len(dps)))
        rng.shuffle(order)
        where = {old: new for new, old in enumerate(order)}
        return RichInput([dps[old] for old in order],
                         [(plane, sorted(where[i] for i in members)) for plane, members in planted],
                         len(inst.points) + len(inst.curves))

    def warm_up(self) -> None:
        inp = self._build(1, Tracer())
        dual3.rich_planes(inp.dps[:40], self.q)

    def job(self, inp: RichInput, tracer) -> dict:
        with tracer.span("dual3.rich_planes"):
            report = dual3.rich_planes(inp.dps, self.q)
        return {"report": report}

    def check(self, inp: RichInput, out, tracer) -> list[str]:
        return gate.rich_planes(inp.dps, out["report"], inp.planted, self.q)

    def counts(self, inp: RichInput, out) -> dict:
        n = len(inp.dps)
        return {"generators.objects": inp.generated,
                "generators.planted": sum(len(m) for _, m in inp.planted),
                "dual3.pairs": n * (n - 1) // 2, "dual3.planes_found": len(out["report"])}

    def layer(self, inp: RichInput, out) -> dict:
        found = {plane: set(m) for plane, m in out["report"]}
        hit = sum(1 for plane, m in inp.planted if plane in found and set(m) <= found[plane])
        return {"dual3.planted_recovered": hit / len(inp.planted)}


WORKLOADS = {w.name: w for w in (CountSparse, CountDense, Partition, RichPlanes)}
