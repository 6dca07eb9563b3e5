"""Correctness gate: checks on the program's outputs, run outside timed spans.

Each check returns a list of problems (empty when the output is correct).
A job with any problem, or one that raised, counts as failed.
"""

from __future__ import annotations

from incidencelab.dual3 import PowerPlane, dp_dual_line, line_in_plane


def histograms(report) -> list[str]:
    problems = []
    if sum(report.per_point) != report.total:
        problems.append(f"{report.kind}: per-point histogram sums to {sum(report.per_point)}, total {report.total}")
    if sum(report.per_curve) != report.total:
        problems.append(f"{report.kind}: per-curve histogram sums to {sum(report.per_curve)}, total {report.total}")
    return problems


def same_report(a, b, what: str) -> list[str]:
    if (a.total, a.per_point, a.per_curve) != (b.total, b.per_point, b.per_curve):
        return [f"{what}: reports differ (totals {a.total} and {b.total})"]
    return []


def total_vs_planted(report, planted: int, exact: bool) -> list[str]:
    if exact and report.total != planted:
        return [f"{report.kind}: total {report.total} differs from certified planted count {planted}"]
    if report.total < planted:
        return [f"{report.kind}: total {report.total} below certified planted count {planted}"]
    return []


def partition_balance(cells, m: int, levels: int, epsilon: float) -> list[str]:
    problems = []
    limit = (1 + epsilon) * m / 2 ** levels
    if cells.max_population() > limit:
        problems.append(f"partition: max cell {cells.max_population()} exceeds {limit:.1f}")
    placed = sum(cells.populations.values()) + sum(cells.on_zero_set)
    if placed != m:
        problems.append(f"partition: cells and zero set hold {placed} of {m} points")
    return problems


def crossings_bound(report, degree_budget: int) -> list[str]:
    if report.total > 4 * degree_budget:
        return [f"partition: {report.total} crossings exceed 4 * degree budget {degree_budget}"]
    return []


def same_crossings(report, per_factor: list, total: int) -> list[str]:
    if report.per_factor != per_factor or report.total != total:
        return [f"partition: re-derived crossings {total} {per_factor} differ from {report.total} {report.per_factor}"]
    return []


def rich_planes(dps, report, planted, q: int) -> list[str]:
    """Every planted plane is found with all its members; every reported
    member lies in its reported plane; every plane is q-rich."""
    problems = []
    found = {plane: set(members) for plane, members in report}
    for plane, members in planted:
        if plane not in found:
            problems.append(f"rich-planes: planted plane {plane} not found")
        elif not set(members) <= found[plane]:
            missing = sorted(set(members) - found[plane])
            problems.append(f"rich-planes: planted plane {plane} lacks members {missing}")
    for plane, members in report:
        if len(members) < q:
            problems.append(f"rich-planes: plane {plane} has {len(members)} < {q} members")
        for i in members:
            if isinstance(plane, PowerPlane):
                inside = line_in_plane(dps[i], plane)
            else:
                inside = dp_dual_line(dps[i]).vertical_trace() == plane
            if not inside:
                problems.append(f"rich-planes: member {i} not in plane {plane}")
    return problems
