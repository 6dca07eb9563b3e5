"""Self-test of the benchmark's correctness gate.

Feeds deliberately wrong reports through the same job path the benchmark
loop uses and checks that each one counts as a failed job.  Run from the
repository root with either of:

    python3 perfbench/test_gate.py
    PYTHONPATH=src python3 -m pytest -q perfbench/test_gate.py
"""

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


class SmallDense(workloads.CountDense):
    grid = 100
    anchored_m, anchored_n = 60, 20


class TotalOffByOne(SmallDense):
    def job(self, specs, tracer):
        out = super().job(specs, tracer)
        out["grid"].total += 1
        return out


class SmallRich(workloads.RichPlanes):
    sampled, circles = 12, 2
    power_circles, per_power_circle = 2, 5
    noise = 4


class DroppedMember(SmallRich):
    def job(self, inp, tracer):
        out = super().job(inp, tracer)
        plane, members = next((p, m) for p, m in out["report"] if p == inp.planted[0][0])
        out["report"].remove((plane, members))
        out["report"].append((plane, members[1:]))
        return out


class ForeignMember(SmallRich):
    def job(self, inp, tracer):
        out = super().job(inp, tracer)
        plane, members = out["report"][0]
        outsider = next(i for i in range(len(inp.dps)) if i not in members)
        out["report"][0] = (plane, sorted(members + [outsider]))
        return out


class ShiftingCounts(SmallDense):
    """Reports one more planted pair each time it runs."""

    calls = 0

    def counts(self, specs, out):
        ShiftingCounts.calls += 1
        counts = super().counts(specs, out)
        counts["generators.planted"] += ShiftingCounts.calls
        return counts


def failed_jobs(workload, jobs: int = 1) -> int:
    """Failed jobs out of ``jobs`` runs of input 0, counted as the loop counts them."""
    tracer = Tracer()
    inputs = workload.inputs(0, tracer)
    with tempfile.TemporaryDirectory() as tmp:
        book = run.CountBook(Path(tmp) / "counts.json", "self-test")
        records = [run.run_job(workload, inputs[0], 0, k, False, tracer, book) for k in range(jobs)]
    return sum(1 for rec in records if rec["problems"])


def test_correct_reports_pass():
    assert failed_jobs(SmallDense(), jobs=2) == 0
    assert failed_jobs(SmallRich(), jobs=2) == 0


def test_total_off_by_one_fails():
    assert failed_jobs(TotalOffByOne()) == 1


def test_dropped_rich_plane_member_fails():
    assert failed_jobs(DroppedMember()) == 1


def test_member_outside_plane_fails():
    assert failed_jobs(ForeignMember()) == 1


def test_changed_exact_counts_fail():
    assert failed_jobs(ShiftingCounts(), jobs=2) == 1


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} gate self-tests passed")
