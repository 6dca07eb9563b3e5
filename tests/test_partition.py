import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from incidencelab import partition, verify
from incidencelab.exact import Vec2, Vec3, int_vec3
from incidencelab.anchored import LiftedCircle, lifted_param
from incidencelab.generators import GenSpec, _rand_circle, gen, rand_rat
from incidencelab.polynomials import MPoly, RationalCurve, UniPoly, restrict_to_curve, sturm_count, tri
from incidencelab.tangency import Circle2
from incidencelab.partition import (
    PartitionError,
    PartitionPoly,
    _best_constant,
    _lift,
    build_partition,
    classify,
    curve_crossings,
    least_lift_degree,
    veronese_monomials,
)
from incidencelab.verify import crossing_trial, numeric_crossing_count, run_trials


def rand_points(rng, m):
    return [Vec3(rand_rat(rng, 50, 20), rand_rat(rng, 50, 20), rand_rat(rng, 50, 20)) for _ in range(m)]


class TestLiftDegrees:
    def test_monomial_counts(self):
        assert len(veronese_monomials(1)) == 4
        assert len(veronese_monomials(2)) == 10
        assert len(veronese_monomials(3)) == 20

    def test_least_degree_growth(self):
        # cube-root-ish growth in the class count
        assert [least_lift_degree(2 ** (j - 1)) for j in range(1, 6)] == [1, 1, 2, 2, 3]


class TestBuild:
    def test_single_level_halves(self):
        rng = random.Random(1)
        pts = rand_points(rng, 8)
        pp = build_partition(pts, 1, 0.5, seed=2)
        assert len(pp.factors) == 1
        assert pp.level_degrees == [1]
        ca = classify(pts, pp)
        assert ca.max_population() <= 4

    def test_balance_reverified_by_classify(self):
        rng = random.Random(3)
        pts = rand_points(rng, 256)
        pp = build_partition(pts, 3, 0.15, seed=4)
        ca = classify(pts, pp)
        assert ca.max_population() <= (1 + 0.15) * 256 / 8
        for lvl, eps in enumerate(pp.balances, start=1):
            assert eps <= 0.15

    def test_too_many_levels_rejected(self):
        rng = random.Random(5)
        with pytest.raises(ValueError):
            build_partition(rand_points(rng, 4), 3, 0.1)

    def test_epsilon_validated(self):
        rng = random.Random(6)
        with pytest.raises(ValueError):
            build_partition(rand_points(rng, 16), 2, 0.0)

    def test_deterministic_in_seed(self):
        rng = random.Random(7)
        pts = rand_points(rng, 128)
        a = build_partition(pts, 2, 0.2, seed=99)
        b = build_partition(pts, 2, 0.2, seed=99)
        assert [f.terms for f in a.factors] == [f.terms for f in b.factors]

    def test_budget_failure_reports_epsilon(self):
        # an impossible target: all points identical, any plane puts them on
        # one side, so bisection can never meet the bound
        pts = [Vec3(1, 1, 1)] * 8
        with pytest.raises(PartitionError) as err:
            build_partition(pts, 1, 0.01, seed=8)
        assert err.value.best_epsilon > 0.01

    def test_failure_reports_the_failing_levels_epsilon(self):
        # level 1 splits the points evenly (epsilon 0), but every level-2
        # factor leaves the 4 equal points on one side (epsilon 1)
        pts = [Vec3(0, 0, 0)] * 4 + [Vec3(1, 2, 3), Vec3(-2, 5, 1), Vec3(3, -1, 4), Vec3(7, 2, -3)]
        with pytest.raises(PartitionError) as err:
            build_partition(pts, 2, 0.1)
        assert str(err.value) == "level 2 failed balance target (best achieved epsilon 1.0000)"
        assert err.value.best_epsilon == 1.0

    @pytest.mark.filterwarnings("error")  # the float search overflows quietly
    @pytest.mark.parametrize("exponent, m, levels", [(153, 16, 3), (152, 32, 4)], ids=["lift", "search"])
    def test_coordinates_too_large_for_the_float_search(self, exponent, m, levels):
        # level 3 lifts to degree 2: with coordinates up to 50 * 10^153 the
        # lift overflows a float; with 50 * 10^152 the lift fits, and the
        # search's sums of coefficient multiples overflow at level 4
        rng = random.Random(1)
        pts = [Vec3(rng.randint(1, 9) * 10 ** exponent + rng.randint(0, 10 ** 6),
                    rng.randint(-50, 50) * 10 ** exponent, rng.randint(-50, 50) * 10 ** exponent)
               for _ in range(m)]
        with pytest.raises(PartitionError, match="^coordinates too large for the float search$") as err:
            build_partition(pts, levels, 0.3, seed=1)
        assert err.value.best_epsilon is None

    def test_search_sees_the_nonempty_sign_prefix_classes(self, monkeypatch):
        # every 5th point is put on the zero set of each factor: from level 2
        # on the search must see it at the spare label k, with size 0, and
        # every other point in one class per nonempty sign prefix
        real_signs, real_search = partition._signs, partition._search_level
        monkeypatch.setattr(partition, "_signs", lambda cleared, f: [
            0 if i % 5 == 0 else s for i, s in enumerate(real_signs(cleared, f))])
        levels = []

        def search(vals_matrix, labels, sizes, *args, **kwargs):
            if not levels or levels[-1][0] is not labels:
                levels.append((labels, sizes.copy()))
            return real_search(vals_matrix, labels, sizes, *args, **kwargs)

        monkeypatch.setattr(partition, "_search_level", search)
        pts = rand_points(random.Random(33), 200)
        sign_vectors = classify(pts, build_partition(pts, 3, 0.3, seed=34)).sign_vectors
        assert len(levels) == 3
        for done, (labels, sizes) in enumerate(levels):
            k = sizes.size - 1
            assert labels.dtype == np.min_scalar_type(k) and sizes[k] == 0
            owner = {}
            for i, sv in enumerate(sign_vectors):
                key = None if 0 in sv[:done] else sv[:done]
                assert owner.setdefault(key, labels[i]) == labels[i]
            assert owner.get(None, k) == k and len(set(owner.values())) == len(owner)
            assert k == len(owner) - (None in owner)
            assert sizes[:k].min() > 0 and np.array_equal(sizes[:k], np.bincount(labels, minlength=k + 1)[:k])


def skewed_labels(seed):
    """Shuffled labels of six classes of very different sizes (one of a
    single point) and 50 points in the spare class, with their sizes."""
    wanted = [1, 3, 40, 700, 1500, 1800]
    k = len(wanted)
    labels = np.repeat(np.arange(k + 1), wanted + [50]).astype(np.min_scalar_type(k))
    np.random.default_rng(seed).shuffle(labels)
    sizes = np.bincount(labels, minlength=k + 1)
    sizes[k] = 0
    return labels, sizes


class TestSample:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_deterministic(self, seed):
        labels, sizes = skewed_labels(seed)
        first = partition._sample(labels, sizes)
        assert np.array_equal(first, partition._sample(labels.copy(), sizes.copy()))
        assert np.array_equal(first, np.unique(first))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_nonempty_class_in_proportion_and_no_spare(self, seed):
        labels, sizes = skewed_labels(seed)
        k = sizes.size - 1
        got = np.bincount(labels[partition._sample(labels, sizes)], minlength=k + 1)
        assert got[k] == 0 and got[:k].min() >= 1
        share = partition.SAMPLE * sizes[:k] / sizes[:k].sum()
        assert (np.abs(got[:k] - np.maximum(share, 1)) <= 1).all()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_size_near_sample(self, seed):
        labels, sizes = skewed_labels(seed)
        assert abs(partition._sample(labels, sizes).size - partition.SAMPLE) <= sizes.size - 1

    def test_climb_on_sample_and_pick_threshold_on_all_points(self, monkeypatch):
        real_constant, real_climb = partition._best_constant, partition._climb
        climbs = []  # per climb: its rows, then the size of every later score

        def constant(vals, *args):
            climbs[-1].append(vals.size)
            return real_constant(vals, *args)

        def climb(vals_matrix, *args):
            climbs.append([vals_matrix.shape[0]])
            return real_climb(vals_matrix, *args)

        monkeypatch.setattr(partition, "_best_constant", constant)
        monkeypatch.setattr(partition, "_climb", climb)
        m, n = 2 * partition.SAMPLE, partition.SAMPLE
        build_partition(rand_points(random.Random(41), m), 1, 0.2, seed=42)
        # every start climbs on the sample and is then scored once on all
        # points, and the best start takes one sweep on all points
        *starts, last = climbs
        assert starts and all(c[0] == n and set(c[1:-1]) == {n} and c[-1] == m for c in starts)
        assert set(last) == {m}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sampled_search_meets_the_exact_bound(self, seed):
        m, levels, eps = 2048, 3, 0.15
        assert m > partition.SAMPLE
        pts = rand_points(random.Random(seed), m)
        pp = build_partition(pts, levels, eps, seed=seed)
        assert max(pp.balances) <= eps
        assert classify(pts, pp).max_population() <= (1 + eps) * m / 2 ** levels

    def test_sampled_levels_stop_at_a_good_enough_start(self):
        # perfbench's partition input 0 at seed 0: a start that splits every
        # class within epsilon/2 on all points ends the level, with no retry
        inst, _ = gen(GenSpec("random-tangency", 4096, 0, seed=135988823))
        pts = [Vec3(p.p.x, p.p.y, p.u) for p in inst.points]
        pp = build_partition(pts, 4, 0.1, seed=135988823)
        assert len(pp.starts) == 4 and max(pp.starts) <= partition.STARTS  # no retry
        assert all(n < partition.STARTS for n in pp.starts[1:])
        assert max(pp.balances) <= 0.1


class TestClassify:
    def test_zero_set_flagged(self):
        pp = PartitionPoly([tri({(0, 0, 1): 1})], [1], [0.0], 0.1, 0)
        ca = classify([Vec3(1, 1, 0), Vec3(0, 0, 3)], pp)
        assert ca.on_zero_set == [True, False]
        assert sum(ca.populations.values()) == 1

    def test_populations_sum(self):
        rng = random.Random(11)
        pts = rand_points(rng, 200)
        pp = build_partition(pts, 2, 0.2, seed=12)
        ca = classify(pts, pp)
        zeros = sum(ca.on_zero_set)
        assert sum(ca.populations.values()) == 200 - zeros

    def test_csv_rows(self):
        pp = PartitionPoly([tri({(0, 0, 1): 1})], [1], [0.0], 0.1, 0)
        rows = classify([Vec3(1, 1, 2)], pp).csv_rows()
        assert rows[0] == "index,cell"
        assert rows[1] == "0,+"


def unit_circle_in_plane(z_level):
    one = UniPoly.const(1)
    s = UniPoly.x()
    s2 = s * s
    return RationalCurve(one - s2, s.scale(2), (one + s2).scale(z_level), one + s2)


class TestCrossings:
    def test_plane_factor_misses_horizontal_circle(self):
        pp = PartitionPoly([tri({(0, 0, 1): 1})], [1], [0.0], 0.1, 0)
        rep = curve_crossings(unit_circle_in_plane(1), pp)
        assert rep.total == 0 and rep.per_factor == [0]

    def test_coordinate_plane_crosses_circle_twice(self):
        pp = PartitionPoly([tri({(1, 0, 0): 1})], [1], [0.0], 0.1, 0)
        rep = curve_crossings(unit_circle_in_plane(0), pp)
        assert rep.total == 2 and rep.per_factor == [2]

    def test_contained_factor_flagged(self):
        pp = PartitionPoly([tri({(0, 0, 1): 1})], [1], [0.0], 0.1, 0)
        rep = curve_crossings(unit_circle_in_plane(0), pp)
        assert rep.per_factor == ["contained"]
        assert rep.total == 0

    def test_shared_roots_counted_once(self):
        # both factors vanish on x = 0: the union has 2 parameter values
        pp = PartitionPoly([tri({(1, 0, 0): 1}), tri({(1, 0, 0): 2})], [1, 1], [0.0, 0.0], 0.1, 0)
        rep = curve_crossings(unit_circle_in_plane(0), pp)
        assert rep.per_factor == [2, 2]
        assert rep.total == 2

    def test_no_crossing_where_the_curve_has_no_point(self):
        # on the lift of the unit circle z = -x/y, so y z + 1 = 1 - x; cleared of
        # w = 1 - s^4 it vanishes only where w does, at s = +-1 (the vertical
        # tangents (+-1, 0), where the lift has no point) and s = +-i
        curve = lifted_param(LiftedCircle(Circle2(Vec2(0, 0), 1)), Vec2(0, 1))
        f = tri({(0, 1, 1): 1, (0, 0, 0): 1})
        assert restrict_to_curve(f, curve) == UniPoly([1])
        assert curve.w == UniPoly([1, 0, 0, 0, -1])
        rep = curve_crossings(curve, factors_partition(f))
        assert rep.total == 0 and rep.per_factor == [0]

    def test_zero_denominator_rejected(self):
        one = UniPoly.const(1)
        with pytest.raises(ValueError, match="denominator identically zero"):
            RationalCurve(one, one, one, UniPoly.zero())

    def test_sturm_vs_numeric_sampling_on_lifted_circles(self):
        rng = random.Random(13)
        pp = build_partition(rand_points(rng, 64), 2, 0.2, seed=14)
        assert len(run_trials(crossing_trial(rng, pp, 5, False) for _ in range(20))) == 20

    def test_bezout_sanity_bound(self):
        rng = random.Random(15)
        pts = rand_points(rng, 128)
        pp = build_partition(pts, 3, 0.2, seed=16)
        for _ in range(20):
            c, p = _rand_circle(rng, 5, 5)
            curve = lifted_param(LiftedCircle(c), p)
            rep = curve_crossings(curve, pp)
            # lifted circles are degree-4 space curves
            assert rep.total <= 4 * pp.degree_budget


class TestGolden:
    def test_partition_json_unchanged(self):
        # captured before the search moved to integer-cleared rows: a change
        # to any float row or to the search path shows up here
        rng = random.Random(2024)
        pts = rand_points(rng, 256)
        pp = build_partition(pts, 3, 0.15, seed=31)
        assert pp.level_degrees == [1, 1, 2]
        assert pp.to_json() == {
            "factors": [
                {"vars": ["x", "y", "z"],
                 "terms": {"0,0,0": "-1837/60", "0,0,1": "-9", "0,1,0": "6", "1,0,0": "-6"}},
                {"vars": ["x", "y", "z"],
                 "terms": {"0,0,0": "14165/468", "0,0,1": "-4", "0,1,0": "-9", "1,0,0": "-7"}},
                {"vars": ["x", "y", "z"],
                 "terms": {"0,0,0": "91328903/15270", "0,0,1": "14", "0,0,2": "-1", "0,1,0": "-6",
                           "0,1,1": "-2", "0,2,0": "-9", "1,0,0": "-6", "1,0,1": "-4", "1,1,0": "23",
                           "2,0,0": "-9"}},
            ],
            "level_degrees": [1, 1, 2],
            "balances": [0.0, 0.0, 0.0],
            "epsilon": 0.15,
            "seed": 31,
            "cell_model": "sign-vector classes (coarsening of connected components)",
            "starts": [1, 2, 18],
        }

    def test_four_level_partition_pinned(self):
        # level degrees 1, 1, 2, 2: the class bookkeeping of two lifts and
        # 16 final classes; the sorted-key JSON is pinned
        rng = random.Random(2025)
        pts = rand_points(rng, 512)
        pp = build_partition(pts, 4, 0.2, seed=32)
        assert pp.level_degrees == [1, 1, 2, 2]
        assert len(classify(pts, pp).populations) == 16
        assert all(type(b) is float for b in pp.balances)
        # at m <= SAMPLE only a perfect score stops a level early
        assert pp.starts == [1, 5, 40, 40]
        payload = pp.to_json()
        del payload["starts"]
        payload = json.dumps(payload, sort_keys=True).encode()
        assert hashlib.sha256(payload).hexdigest() == (
            "3d995738a9dee7b817c9249b3f77e663013d4bed838c673b5fbffbdcf5bbbc50")


def best_constant_per_class(vals, classes, target):
    """The per-class scan: sort each class, two searchsorted calls per class."""
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


def class_labels(classes, m):
    """Class of every point, len(classes) for a point in none, and the class
    sizes, with size 0 for that spare label."""
    labels = np.full(m, len(classes), dtype=np.min_scalar_type(len(classes)))
    for c, idx in enumerate(classes):
        labels[idx] = c
    sizes = np.bincount(labels, minlength=len(classes) + 1)
    sizes[len(classes)] = 0
    return labels, sizes


def adjacent_floats(rng, base, m):
    out = []
    for _ in range(m):
        v = base
        for _ in range(rng.randrange(4)):
            v = np.nextafter(v, rng.choice([np.inf, -np.inf]))
        out.append(v)
    return np.array(out)


class TestBestConstant:
    def check(self, vals, classes, target):
        got = _best_constant(vals, *class_labels(classes, vals.size), target)
        assert got == best_constant_per_class(vals, classes, target)
        # the class numbering does not matter
        assert _best_constant(vals, *class_labels(classes[::-1], vals.size), target) == got

    @pytest.mark.parametrize("target", [0.0, 1.0, 2.5, 6.0, 100.0])
    def test_duplicates(self, target):
        vals = np.array([3.0, 1.0, 3.0, 3.0, -2.0, 1.0, 0.0, 3.0, -2.0, 5.0])
        self.check(vals, [np.array([0, 1, 2, 3]), np.array([4, 5, 6]), np.array([7, 8, 9])], target)

    @pytest.mark.parametrize("base", [1.0, -0.5, 1e16, -1e16, 1e300, -1e300])
    def test_adjacent_floats(self, base):
        # midpoints of neighbouring floats round onto one of them
        rng = random.Random(repr(base))
        for _ in range(30):
            m = rng.randrange(2, 25)
            vals = adjacent_floats(rng, base, m)
            perm = rng.sample(range(m), m)
            cut = rng.randrange(1, m + 1)
            classes = [np.array(sorted(perm[:cut][k::2])) for k in range(2)]
            self.check(vals, [c for c in classes if c.size], rng.choice([0.0, m / 4, m / 2]))

    @pytest.mark.parametrize("scale", [1e16, 1e300])
    def test_huge_magnitudes(self, scale):
        rng = random.Random(repr(scale))
        for _ in range(30):
            m = rng.randrange(1, 40)
            vals = np.array([rng.randint(-6, 6) * scale + rng.randint(-3, 3) for _ in range(m)])
            classes = [np.array(sorted(rng.sample(range(m), rng.randrange(1, m + 1))))]
            self.check(vals, classes, rng.choice([0.0, m / 3]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf + -inf, overflowing sums
    def test_overflowing_midpoints(self):
        # a midpoint of two values near the float limit overflows to inf
        rng = random.Random(11)
        pool = [1.7e308, -1.7e308, 1.6e308, 1e308, 0.0, float("inf"), float("-inf"), 1.0]
        for _ in range(60):
            m = rng.randrange(1, 20)
            vals = np.array([rng.choice(pool) for _ in range(m)])
            classes = [np.array(sorted(rng.sample(range(m), rng.randrange(1, m + 1))))]
            self.check(vals, classes, rng.choice([0.0, m / 3]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_values(self):
        rng = random.Random(13)
        for _ in range(60):
            m = rng.randrange(2, 20)
            vals = np.array([rng.choice([float("nan"), float(rng.randint(-3, 3))]) for _ in range(m)])
            classes = [np.array(sorted(rng.sample(range(m), rng.randrange(1, m + 1))))]
            target = rng.choice([0.0, m / 3])
            got = _best_constant(vals, *class_labels(classes, m), target)
            np.testing.assert_equal(got, best_constant_per_class(vals, classes, target))

    def test_classes_missing_indices(self):
        rng = random.Random(17)
        for _ in range(200):
            m = rng.randrange(1, 50)
            vals = np.array([float(rng.randint(-5, 5)) for _ in range(m)])
            owner = [rng.randrange(-1, 4) for _ in range(m)]  # -1: in no class
            classes = [np.array([i for i in range(m) if owner[i] == c]) for c in range(4)]
            self.check(vals, [c for c in classes if c.size], rng.choice([0.0, m / 4, m / 2 + 0.5]))

    def test_no_classes_and_no_values(self):
        self.check(np.array([2.0, -1.0, 2.0]), [], 0.0)
        assert _best_constant(np.array([]), *class_labels([], 0), 1.0) == (0.0, (float("inf"), float("inf")))

    def test_seeded_search_inputs(self):
        # the shapes the level search produces: partitions of all points
        rng = np.random.default_rng(5)
        for level in range(1, 5):
            m = 300
            vals = rng.normal(size=m) * 10.0 ** rng.integers(-3, 6)
            labels = rng.integers(0, 2 ** (level - 1), m)
            classes = [np.flatnonzero(labels == c) for c in range(2 ** (level - 1))]
            for target in (m / 2 ** level, 1.1 * m / 2 ** level):
                self.check(vals, [c for c in classes if c.size], target)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_benchmark_shape(self, seed):
        # the level-4 search: 4096 distinct values, 8 classes in uint8 labels,
        # some points on an earlier zero set (the spare label)
        rng = np.random.default_rng(seed)
        m = 4096
        vals = rng.normal(size=m)
        assert np.unique(vals).size == m
        owner = rng.integers(-1, 8, m)  # -1: on the zero set
        classes = [np.flatnonzero(owner == c) for c in range(8)]
        assert class_labels(classes, m)[0].dtype == np.uint8
        for target in (0.0, m / 16, 1.1 * m / 16, float(m)):
            self.check(vals, classes, target)
        assert _best_constant(vals, *class_labels(classes, m), 0.0)[1][0] > 0
        assert _best_constant(vals, *class_labels(classes, m), float(m))[1][0] == 0

    @pytest.mark.parametrize("spare", [[1.0, 2.0, 3.0], [1.0, 1.0, 2.0]])
    def test_lowest_threshold_wins_ties(self, spare):
        # thresholds 0.5, 1.5, ... between the class's two values all split it
        # 1 : 1 (worst 1, imbalance 0); the spare points decide nothing
        vals = np.array([0.0, 10.0, *spare])
        classes = [np.array([0, 1])]
        for target in (0.0, 1.0):
            self.check(vals, classes, target)
            assert _best_constant(vals, *class_labels(classes, vals.size), target) == (0.5, (1.0 - target, 0.0))

    @pytest.mark.parametrize("base", [1.0, 1e16, 1e300])
    def test_distinct_values_one_ulp_apart(self, base):
        # distinct values whose midpoints round onto a neighbour
        rng = random.Random(repr(base))
        for m in (2, 3, 17, 64):
            vals = [base]
            for _ in range(m - 1):
                vals.append(np.nextafter(vals[-1], np.inf))
            ordered = np.array(vals)
            mids = (ordered[:-1] + ordered[1:]) / 2
            assert ((mids == ordered[:-1]) | (mids == ordered[1:])).all()
            vals = np.array(rng.sample(vals, m))
            perm = rng.sample(range(m), m)
            classes = [np.array(sorted(perm[k::2])) for k in range(2)]
            self.check(vals, [c for c in classes if c.size], rng.choice([0.0, m / 4, m / 2]))


def crossings_by_product(curve, pp):
    product = UniPoly.const(1)
    for f in pp.factors:
        restricted = restrict_to_curve(f, curve)
        if not restricted.is_zero():
            product = product * restricted
    return sturm_count(product)


def factors_partition(*factors):
    return PartitionPoly(list(factors), [f.total_degree() for f in factors], [0.0] * len(factors), 0.1, 0)


class TestMergedTotal:
    @pytest.mark.parametrize("factors, total", [
        # x, x + y - 1 and x - y + 1 all vanish at (0, 1), parameter s = 1
        ([tri({(1, 0, 0): 1}), tri({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): -1}),
          tri({(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 0): 1})], 3),
        # x + y - 1 meets x = 0 at s = 1 and y = 0 at s = 0
        ([tri({(1, 0, 0): 1}), tri({(0, 1, 0): 1}), tri({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): -1})], 3),
        ([tri({(1, 0, 0): 1}), tri({(1, 0, 0): 3})], 2),
        ([tri({(2, 0, 0): 1}), tri({(0, 1, 0): 1})], 3),
        ([tri({(0, 0, 1): 1, (0, 0, 0): -5}), tri({(1, 0, 0): 1})], 2),
        ([tri({(0, 0, 1): 1}), tri({(1, 0, 0): 2, (0, 0, 0): -1}), tri({(0, 0, 1): 3})], 2),
        ([tri({(0, 0, 1): 1})], 0),
    ], ids=["shared-by-three", "shared-with-each-earlier", "scalar-multiple", "squared", "nonzero-constant", "contained", "only-contained"])
    def test_crafted(self, factors, total):
        pp = factors_partition(*factors)
        rep = curve_crossings(unit_circle_in_plane(0), pp)
        assert rep.total == crossings_by_product(unit_circle_in_plane(0), pp) == total

    def test_per_factor_and_contained(self):
        pp = factors_partition(tri({(0, 0, 1): 1}), tri({(2, 0, 0): 1}), tri({(0, 0, 1): 1, (0, 0, 0): -5}))
        rep = curve_crossings(unit_circle_in_plane(0), pp)
        assert rep.per_factor == ["contained", 2, 0]

    def test_pole_case_on_every_oracle(self):
        # on the lift of the unit circle through (0, 1), y and y z + 1 (1 - x on
        # the lift) restrict to polynomials that vanish only where w does, at
        # the vertical tangents (+-1, 0), where the lift has no point; x = 0 at
        # (0, 1), parameter s = 0 (its point (0, -1) at s = infinity is not counted)
        curve = lifted_param(LiftedCircle(Circle2(Vec2(0, 0), 1)), Vec2(0, 1))
        factors = [tri({(1, 0, 0): 1}), tri({(0, 1, 0): 1}), tri({(0, 1, 1): 1, (0, 0, 0): 1})]
        pp = factors_partition(*factors)
        rep = curve_crossings(curve, pp)
        assert rep.total == crossings_by_product(curve, pp) == 1
        assert rep.per_factor == [numeric_crossing_count(restrict_to_curve(f, curve)) for f in factors] == [1, 0, 0]

    def test_seeded_lifted_circles(self):
        rng = random.Random(23)
        pts = rand_points(rng, 128)
        pp = build_partition(pts, 3, 0.2, seed=24)
        for _ in range(20):
            c, p = _rand_circle(rng, 5, 5)
            curve = lifted_param(LiftedCircle(c), p)
            assert curve_crossings(curve, pp).total == crossings_by_product(curve, pp)


def signs_by_eval(points, pp):
    out = []
    for p in points:
        vals = [f.eval({"x": p.x, "y": p.y, "z": p.z}) for f in pp.factors]
        out.append(tuple((v > 0) - (v < 0) for v in vals))
    return out


def scalar_horner(coeffs, t):
    acc = 0.0
    for c in coeffs:
        acc = acc * t + c
    return acc


class TestNumericCrossingCount:
    def test_float_pass_matches_a_scalar_loop(self):
        # coefficients up to 10^40 and samples out to 1e300 overflow to inf,
        # and infinite samples give NaN; the array pass must give the same
        # floats and guesses
        rng = random.Random(61)
        for _ in range(300):
            coeffs = [float(rand_rat(rng, 10 ** 40, 10 ** rng.randint(0, 20))) for _ in range(rng.randint(1, 9))]
            samples = {rng.choice([1, -1]) * 10 ** rng.uniform(-5, 300) for _ in range(200)}
            samples = sorted(samples | {0.0, np.inf, -np.inf})
            got = verify._horner(coeffs, np.array(samples))
            want = np.array([scalar_horner(coeffs, t) for t in samples])
            assert np.array_equal(got, want, equal_nan=True)
            guesses = (got > 0).astype(np.int8) - (got < 0)
            assert guesses.tolist() == [(v > 0) - (v < 0) for v in want.tolist()]

    def test_coefficient_past_the_float_range_raises(self):
        with pytest.raises(OverflowError):
            numeric_crossing_count(UniPoly([1, 0, Fraction(10 ** 400, 3)]))


class TestClassifyCleared:
    def test_mixed_denominators(self):
        rng = random.Random(29)
        pts = [Vec3(Fraction(rng.randint(-90, 90), rng.randint(1, 12)),
                    Fraction(rng.randint(-90, 90), rng.randint(1, 7)),
                    rng.randint(-9, 9)) for _ in range(200)]
        pp = build_partition(pts, 3, 0.2, seed=30)
        assert classify(pts, pp).sign_vectors == signs_by_eval(pts, pp)

    def test_zero_set_points(self):
        # 3x - 2y + z/5 - 1/7 and x^2 + y^2 - 25/36 through chosen points
        f = tri({(1, 0, 0): 3, (0, 1, 0): -2, (0, 0, 1): Fraction(1, 5), (0, 0, 0): Fraction(-1, 7)})
        g = tri({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 0): Fraction(-25, 36)})
        pts = [Vec3(Fraction(1, 21), 0, 0), Vec3(Fraction(1, 2), Fraction(2, 3), 0),
               Vec3(0, Fraction(5, 6), Fraction(190, 21)), Vec3(Fraction(1, 3), Fraction(-1, 11), Fraction(2, 9))]
        pp = factors_partition(f, g)
        ca = classify(pts, pp)
        assert ca.sign_vectors == signs_by_eval(pts, pp)
        assert ca.on_zero_set == [True, True, True, False]
        assert ca.sign_vectors[2] == (0, 0)

    def test_factor_from_json_with_fractions(self):
        f = tri({(0, 0, 0): Fraction(-1, 3), (1, 0, 0): Fraction(2, 5), (0, 1, 1): Fraction(7, 2),
                 (2, 0, 0): Fraction(-3, 7), (0, 0, 3): Fraction(5, 11)})
        g = tri({(1, 0, 1): Fraction(3, 4), (0, 2, 0): Fraction(-1, 6), (0, 0, 0): Fraction(1, 9)})
        pp = factors_partition(f, g)
        rng = random.Random(31)
        pts = [Vec3(rand_rat(rng, 3, 9), rand_rat(rng, 3, 9), rand_rat(rng, 3, 9)) for _ in range(300)]
        pts.append(Vec3(0, Fraction(-8, 231), 1))  # on the zero set of f
        ca = classify(pts, pp)
        assert ca.sign_vectors == signs_by_eval(pts, pp)
        assert ca.sign_vectors[-1][0] == 0
        assert len(set(ca.sign_vectors)) > 2

    def test_factor_over_other_variable_order_rejected(self):
        pp = factors_partition(MPoly(("z", "x", "y"), {(1, 1, 0): 1}))
        with pytest.raises(ValueError, match=r"over \(x, y, z\)"):
            classify([Vec3(1, 2, 3)], pp)


# numerators and denominators small or near 2^200, drawn per coordinate
magnitude = st.one_of(st.integers(-20, 20), st.integers(1 << 199, 1 << 201), st.integers(-(1 << 201), -(1 << 199)))
denominator = st.one_of(st.integers(1, 12), st.integers(1 << 199, 1 << 201))
rationals = st.builds(Fraction, magnitude, denominator)


@st.composite
def points_and_factors(draw):
    """Points, and one or two factors of degree 1 to 3, each through one of the points."""
    pts = draw(st.lists(st.builds(Vec3, rationals, rationals, rationals), min_size=1, max_size=5))
    factors = []
    for _ in range(draw(st.integers(1, 2))):
        monos = veronese_monomials(draw(st.integers(1, 3)))
        g = tri(dict(zip(monos, draw(st.lists(rationals, min_size=len(monos), max_size=len(monos))))))
        p = draw(st.sampled_from(pts))
        factors.append(g - tri({(0, 0, 0): g.eval({"x": p.x, "y": p.y, "z": p.z})}))
    return pts, factors


@settings(max_examples=40, deadline=None, derandomize=True, database=None, phases=(Phase.generate,))
@given(points_and_factors())
def test_point_layer_at_adversarial_magnitudes(case):
    pts, factors = case
    for d in (1, 2, 3):
        monos = veronese_monomials(d)
        rows = _lift([int_vec3(p) for p in pts], monos)
        assert rows.tolist() == [[float(p.x ** i * p.y ** j * p.z ** k) for i, j, k in monos] for p in pts]
    pp = factors_partition(*factors)
    ca = classify(pts, pp)
    assert ca.sign_vectors == signs_by_eval(pts, pp)
    assert any(ca.on_zero_set) or all(f.is_zero() for f in factors)
