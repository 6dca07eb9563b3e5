"""The verify suite must cover every invariant promised by the modules;
dropping a check from the registry is a build failure here."""

import random
from fractions import Fraction

import pytest

from incidencelab import anchored, generators, partition, verify
from incidencelab.verify import CHECKS, CheckFailed, run_suite

REQUIRED_CHECKS = {
    # exact kernel
    "rational-exactness",
    "sturm-vs-numeric",
    "resultant-vs-gcd",
    # plane tangency
    "common-circle-characterization",
    "tangency-pair-uniqueness",
    "triple-collinearity",
    "orthogonal-circle-power",
    # anchored space
    "anchored-pair-bound",
    "anchored-dual-uniqueness",
    "cubic-surface-vanishing",
    "lifted-pair-bound",
    # dual 3-space
    "master-duality",
    "power-decoding",
    "line-in-plane-characterization",
    "rich-planes-completeness",
    # incidence engine
    "engine-mode-equivalence",
    "engine-determinism",
    "engine-histogram-consistency",
    "engine-throughput",
    # partition
    "partition-balance",
    "partition-degree-accounting",
    "partition-crossing-soundness",
    # generators
    "generator-seed-determinism",
    "generator-planted-soundness",
    "st-grid-enumeration",
    # cli
    "cli-reproducibility",
}


def test_registry_covers_every_module_invariant():
    missing = REQUIRED_CHECKS - set(CHECKS)
    assert not missing, f"verify suite lost checks: {sorted(missing)}"


def test_no_unexpected_checks_without_manifest_entry():
    extra = set(CHECKS) - REQUIRED_CHECKS
    assert not extra, f"new checks need manifest entries: {sorted(extra)}"


def test_quick_suite_green():
    failures = []

    def log(msg):
        if msg.startswith("[FAIL]"):
            failures.append(msg)

    ok = run_suite(quick=True, seed=7734, log=log)
    assert ok, failures


def test_failed_and_crashed_checks_fail_the_suite(monkeypatch):
    def fails(rng, scale):
        raise CheckFailed("boom")

    def crashes(rng, scale):
        raise ValueError("bad value")

    monkeypatch.setattr(verify, "CHECKS", {"fails": fails, "crashes": crashes})
    lines = []
    assert run_suite(quick=True, seed=1, log=lines.append) is False
    assert len(lines) == 2
    assert lines[0].startswith("[FAIL] fails: boom (")
    assert lines[1].startswith("[FAIL] crashes: exception: ValueError(")


# Each fault below is caught by the one check that makes its claim, as no
# second check repeats it; these show that check still catches the fault.


def test_master_duality_catches_a_broken_lift(monkeypatch):
    # what lift-tangency-equivalence checked: lifted_contains == is_tangent
    monkeypatch.setattr(anchored, "lifted_contains", lambda lc, pt: False)
    with pytest.raises(CheckFailed, match="duality mismatch"):
        CHECKS["master-duality"](random.Random(1), 0.02)


def test_crossing_soundness_catches_a_total_past_bezout(monkeypatch):
    # what partition-bezout-bound checked: total <= 4 * degree budget
    real = partition.curve_crossings

    def inflated(curve, pp):
        return partition.CrossingReport(4 * pp.degree_budget + 1, real(curve, pp).per_factor)

    monkeypatch.setattr(partition, "curve_crossings", inflated)
    with pytest.raises(CheckFailed, match="exceed Bezout bound"):
        CHECKS["partition-crossing-soundness"](random.Random(1), 0.02)


def test_anchored_dual_uniqueness_fails_on_a_through_pair_crash(monkeypatch):
    # a through-pair that builds its circle when |c|^2 < 1 makes the
    # AnchoredCircle constructor raise; only collinear pairs may SKIP
    def builds_inside(p, q):
        n = p.cross(q)
        if n.is_zero():
            raise ValueError("degenerate triple")
        c = (q.scale(p.norm2()) - p.scale(q.norm2())).cross(n).scale(Fraction(1) / (2 * n.norm2()))
        return None if c.norm2() > 1 else anchored.AnchoredCircle(c, n)

    monkeypatch.setattr(anchored, "anchored_through_pair", builds_inside)
    with pytest.raises(ValueError, match="center must lie on the unit sphere"):
        CHECKS["anchored-dual-uniqueness"](random.Random(1), 0.02)


def test_uncertified_planted_pairs_fail_as_a_check(monkeypatch):
    def refuse(inst):
        raise ValueError("planted pair (0, 0) failed the exact re-check")

    monkeypatch.setattr(generators, "certify", refuse)
    monkeypatch.setattr(verify, "CHECKS", {"generator-planted-soundness": CHECKS["generator-planted-soundness"]})
    lines = []
    assert run_suite(quick=True, seed=1, log=lines.append) is False
    assert lines[0].startswith(
        "[FAIL] generator-planted-soundness: pencil: planted pair (0, 0) failed the exact re-check (")
