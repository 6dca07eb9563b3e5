import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from incidencelab import partition
from incidencelab.exact import Vec3
from incidencelab.anchored import LiftedCircle, lifted_param
from incidencelab.generators import _rand_circle, rand_rat
from incidencelab.polynomials import MPoly, RationalCurve, UniPoly, restrict_to_curve, sturm_count, tri
from incidencelab.partition import (
    PartitionError,
    PartitionPoly,
    _best_constant,
    build_partition,
    classify,
    curve_crossings,
    least_lift_degree,
    veronese_monomials,
)
from incidencelab.verify import crossing_trial, run_trials


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
    return RationalCurve(one - s2, one + s2, s.scale(2), one + s2,
                         UniPoly.const(z_level), one)


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
        payload = json.dumps(pp.to_json(), sort_keys=True).encode()
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
