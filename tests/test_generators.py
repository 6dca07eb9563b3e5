import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from incidencelab.dual3 import Line3, dual_incidence
from incidencelab.engine import count
from incidencelab.generators import (
    GENERATORS,
    GenSpec,
    Instance,
    InfeasibleSpecError,
    eval_Fstar,
    gen,
    horizontal_line_Fstar,
    rand_rat,
    st_grid_k,
)
from incidencelab.exact import Vec3

SRC = Path(__file__).resolve().parent.parent / "src" / "incidencelab"


class TestGenSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InfeasibleSpecError):
            GenSpec("nope", 1, 1)

    @pytest.mark.parametrize("field", ["coord_range", "den_bound"])
    def test_ranges_below_one_rejected(self, field):
        with pytest.raises(InfeasibleSpecError):
            GenSpec("random-tangency", 3, 3, **{field: 0})


class TestPencil:
    def test_planted_equals_engine_count(self):
        inst, planted = gen(GenSpec("pencil", 1, 50, seed=1))
        assert planted == 50
        assert count(inst.points, inst.curves).total == 50

    def test_multi_point_pencil_infeasible(self):
        with pytest.raises(InfeasibleSpecError):
            gen(GenSpec("pencil", 2, 10, seed=1))

    def test_offsets_exhausted(self):
        # |s| <= 1 with denominator <= 3: +-1, +-1/2, +-1/3, +-2/3
        inst, planted = gen(GenSpec("pencil", 1, 8, seed=2, coord_range=1, den_bound=3))
        assert planted == 8 and len(set(c.center for c in inst.curves)) == 8
        with pytest.raises(InfeasibleSpecError):
            gen(GenSpec("pencil", 1, 9, seed=2, coord_range=1, den_bound=3))


class TestRandomTangency:
    def test_deterministic_in_seed(self):
        a, _ = gen(GenSpec("random-tangency", 30, 30, seed=5))
        b, _ = gen(GenSpec("random-tangency", 30, 30, seed=5))
        assert a.to_json() == b.to_json()
        c, _ = gen(GenSpec("random-tangency", 30, 30, seed=6))
        assert a.to_json() != c.to_json()

    def test_planted_zero(self):
        _, planted = gen(GenSpec("random-tangency", 20, 20, seed=2))
        assert planted == 0


class TestCircleSampled:
    def test_every_point_tangent_to_host(self):
        inst, planted = gen(GenSpec("circle-sampled", 40, 10, seed=3))
        assert planted == 40
        for i, j in inst.planted_pairs:  # the dual form, independent of gen's kernel check
            assert dual_incidence(inst.points[i], inst.curves[j])

    def test_engine_at_least_planted(self):
        inst, planted = gen(GenSpec("circle-sampled", 40, 10, seed=4))
        assert count(inst.points, inst.curves).total >= planted


class TestStGrid:
    def test_sizes(self):
        inst, _ = gen(GenSpec("st-grid-horizontal-lines", 432, 432, seed=0))
        k = st_grid_k(432)
        assert k == 6
        assert len(inst.points) == 2 * k ** 3
        assert len(inst.curves) == 2 * k ** 3

    def test_planted_matches_double_loop_enumeration(self):
        inst, planted = gen(GenSpec("st-grid-horizontal-lines", 432, 432, seed=0))
        # independent dense enumeration with the exact predicate
        brute = count(inst.points, inst.curves, mode="exact").total
        assert planted == brute

    def test_lines_equal_their_constructor(self):
        inst, _ = gen(GenSpec("st-grid-horizontal-lines", 108, 108, z_levels=2))
        k = st_grid_k(108, 2)
        assert k == 3
        wanted = [Line3(Vec3(0, t, lvl), Vec3(1, s, 0))
                  for lvl in range(2) for s in range(1, 2 * k + 1) for t in range(1, k * k + 1)]
        assert len(inst.curves) == len(wanted)
        for got, line in zip(inst.curves, wanted):
            assert got.point == line.point and got.direction == line.direction
            assert hash(got) == hash(line)

    def test_z_levels_replicate(self):
        one, p1 = gen(GenSpec("st-grid-horizontal-lines", 128, 128, seed=0))
        two, p2 = gen(GenSpec("st-grid-horizontal-lines", 256, 256, seed=0, z_levels=2))
        k1 = st_grid_k(128)
        k2 = st_grid_k(256, 2)
        assert k1 == k2
        assert len(two.points) == 2 * len(one.points)
        assert p2 == 2 * p1


class TestAnchored:
    def test_random_points_in_ball(self):
        inst, planted = gen(GenSpec("anchored-random", 30, 15, seed=8))
        assert planted == 0
        for p in inst.points:
            assert 0 < p.norm2() <= 4

    def test_planted_pairs_pass_predicate(self):
        inst, planted = gen(GenSpec("anchored-planted", 50, 40, seed=9))
        assert planted == len(inst.planted_pairs)
        for i, j in inst.planted_pairs:  # the plane and unit-distance form, not the kernel
            p, g = inst.points[i], inst.curves[j]
            assert g.n.dot(p) == 0 and (p - g.c).norm2() == 1
        # the hub lies on all 40 circles, every other point on exactly one
        assert planted == 50 + 40 - 1
        report = count(inst.points, inst.curves)
        assert report.total == planted
        assert report.per_point == [40] + [1] * 49

    def test_planted_counted_by_engine(self):
        inst, planted = gen(GenSpec("anchored-planted", 30, 20, seed=10))
        total = count(inst.points, inst.curves).total
        assert total >= planted


PINNED = [
    (GenSpec("pencil", 1, 30, seed=3),
     "997189f893a90e93f6d8f739a93b89162e514d52b21bc2043d5e9f45c954e619", 0.5341030849894441),
    (GenSpec("circle-sampled", 40, 10, seed=4),
     "b6ea0cf5376bbbeef31c5550cc9e67df84ee55afb4c4df4067fefb672e9d8e6d", 0.5462300441463859),
    (GenSpec("random-tangency", 40, 30, seed=5),
     "a36c9e8089c373e5560ef750a3b0e100de295816cbd2bac2ffeef2fe060ad280", 0.7326342704148535),
    (GenSpec("st-grid-horizontal-lines", 432, 432, seed=0, z_levels=2),
     "0fae82c4f78f658a9ec457cffc9aa21e159cfc3e33749e491dca84d4fbf0aa69", 0.8444218515250481),
    (GenSpec("anchored-random", 30, 15, seed=8),
     "a943dc29b3d7e7ea82d758ec903b0438b37ecb12ed48c7928b8a42ada9ef5f75", 0.8277308209587193),
    (GenSpec("anchored-planted", 50, 40, seed=9),
     "f76264b9834fbc82c4beffe221a37f35392f5b83bea0dc058e79565e84e4c73c", 0.06559688910787764),
]


@pytest.mark.parametrize("spec, digest, next_draw", PINNED, ids=[spec.kind for spec, _, _ in PINNED])
def test_instances_and_draws_pinned(spec, digest, next_draw):
    # same draws, same Fractions: the sorted-key instance JSON is pinned,
    # and so is the generator's next draw, which counts the draws made
    rng = random.Random(spec.seed)
    inst = GENERATORS[spec.kind](spec, rng)
    payload = json.dumps(inst.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == digest
    assert rng.random() == next_draw


@pytest.mark.parametrize("mag, den", [(5, 0), (-1, 5)])
def test_empty_range_raises(mag, den):
    with pytest.raises(ValueError):
        rand_rat(random.Random(0), mag, den)


@pytest.mark.parametrize("module", ["exact", "generators", "anchored", "tangency", "partition"])
def test_samplers_draw_through_rand_below(module):
    # the instances stay tied to exact.rand_below, not to the interpreter's
    # randint and randrange, whose streams Python may change between versions
    calls = re.findall(r"\.(?:randint|randrange)\(", (SRC / f"{module}.py").read_text())
    assert calls == []


class TestInstanceJson:
    def test_round_trip_all_kinds(self):
        for spec in (
            GenSpec("random-tangency", 5, 5, seed=1),
            GenSpec("anchored-random", 5, 5, seed=1),
            GenSpec("st-grid-horizontal-lines", 16, 16, seed=1),
        ):
            inst, _ = gen(spec)
            again = Instance.from_json(inst.to_json())
            assert again.kind == inst.kind
            assert again.points == inst.points
            assert again.curves == inst.curves


class TestFstar:
    def test_eliminant_is_height_difference(self):
        fstar = horizontal_line_Fstar()
        # the eliminant only involves c1, c2 and is proportional to c1 - c2
        rng = random.Random(11)
        base = eval_Fstar(fstar, (Fraction(1), Fraction(0), Fraction(1)),
                          (Fraction(2), Fraction(0), Fraction(0)))
        assert base != 0
        for _ in range(200):
            a1, b1, c1 = (Fraction(rng.randint(-9, 9)) for _ in range(3))
            a2, b2, c2 = (Fraction(rng.randint(-9, 9)) for _ in range(3))
            v = eval_Fstar(fstar, (a1, b1, c1), (a2, b2, c2))
            assert (v == 0) == (c1 == c2)

    def test_intersecting_lines_vanish(self):
        fstar = horizontal_line_Fstar()
        rng = random.Random(12)
        for _ in range(100):
            a1 = Fraction(rng.randint(-9, 9))
            a2 = Fraction(rng.randint(-9, 9))
            if a1 == a2:
                continue
            b1, b2 = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
            c = Fraction(rng.randint(-9, 9))
            assert eval_Fstar(fstar, (a1, b1, c), (a2, b2, c)) == 0

    def test_identical_lines_vanish(self):
        fstar = horizontal_line_Fstar()
        line = (Fraction(2), Fraction(3), Fraction(-1))
        assert eval_Fstar(fstar, line, line) == 0
