"""Fixed-point data and the squaring-embedding pushforwards."""

import random

import pytest

from eqchow.localization import (
    RepeatedRoots,
    closed_form_pushforward,
    fixed_points,
    fundamental_class,
    pushforward_via_fixed_point_classes,
    veronese_correspondence,
    veronese_pushforward,
)
from eqchow.poly import ONE, var
from eqchow.symfunc import RepRoots, build_roots

H = var("H")
c1, c2, c3 = var("c1"), var("c2"), var("c3")
l1, l2, l3 = var("l1"), var("l2"), var("l3")

RHAT = H**3 - 2 * c1 * H**2 + (c1**2 + c2) * H + (c3 - c1 * c2)


class TestFixedPoints:
    def test_dual_standard_rank3_point0(self):
        pts = fixed_points(build_roots(3, "E*"))
        p0 = next(p for p in pts if p.root == l1)
        assert p0.hyperplane_restriction == -l1
        assert set(p0.tangent_weights) == {l2 - l1, l3 - l1}

    def test_sym2_rank3_has_six_points(self):
        assert len(fixed_points(build_roots(3, "Sym2(E*)"))) == 6

    def test_rank2_smallest_case(self):
        pts = fixed_points(build_roots(2, "E*"))
        p1 = next(p for p in pts if p.root == var("l2"))
        assert p1.hyperplane_restriction == -var("l2")
        assert p1.tangent_weights == (var("l1") - var("l2"),)

    def test_tangent_weight_count(self):
        for n in (2, 3, 4):
            roots = build_roots(n, "Sym2(E*)")
            for p in fixed_points(roots):
                assert len(p.tangent_weights) == roots.dimension - 1
                assert all(w for w in p.tangent_weights)

    def test_repeated_roots_rejected(self):
        bad = RepRoots(2, (l1, l1), "test")
        with pytest.raises(RepeatedRoots):
            fixed_points(bad)
        with pytest.raises(RepeatedRoots):
            fundamental_class(bad, 0)


class TestFundamentalClass:
    def test_sym2_rank3_doubled_root_point(self):
        roots = build_roots(3, "Sym2(E*)")
        j = roots.roots.index(2 * l1)
        cls = fundamental_class(roots, j)
        expected = (
            (H + 2 * l2)
            * (H + 2 * l3)
            * (H + l1 + l2)
            * (H + l1 + l3)
            * (H + l2 + l3)
        )
        assert cls == expected

    def test_rank2_line(self):
        roots = build_roots(2, "E*")
        j = roots.roots.index(var("l1"))
        assert fundamental_class(roots, j) == H + var("l2")

    def test_restriction_gives_tangent_product(self):
        # substituting the point's restriction recovers the tangent weights
        for desc in ("E*", "Sym2(E*)", "Wedge2(E*)"):
            roots = build_roots(3, desc)
            for p in fixed_points(roots):
                cls = fundamental_class(roots, p.index)
                value = cls.substitute("H", p.hyperplane_restriction)
                expected = ONE
                for w in p.tangent_weights:
                    expected = expected * w
                assert value == expected

    def test_target_class_factors_through_pair_product(self):
        # the factorization the fast localization path relies on
        from eqchow.localization import _wedge_total_chern

        for n in range(2, 7):
            corr = veronese_correspondence(n)
            pairs = _wedge_total_chern(n)
            for j, tj in enumerate(corr.point_map):
                cls = fundamental_class(corr.target, tj)
                partial = ONE
                for i, r in enumerate(corr.source.roots):
                    if i != j:
                        partial = partial * (H + 2 * r)
                assert cls == partial * pairs


class TestVeroneseCorrespondence:
    def test_point_map_doubles_roots(self):
        for n in (2, 3, 4, 5):
            corr = veronese_correspondence(n)
            assert len(set(corr.point_map)) == n
            for j, tj in enumerate(corr.point_map):
                assert corr.target.roots[tj] == 2 * corr.source.roots[j]


class TestPushforwards:
    def test_rank3_displayed_classes(self):
        assert veronese_pushforward(3, 0) == 4 * RHAT
        assert veronese_pushforward(3, 1) == 2 * H * RHAT
        assert veronese_pushforward(3, 2) == H**2 * RHAT

    def test_closed_form_rank3(self):
        assert closed_form_pushforward(3, 1) == 2 * H * RHAT

    def test_closed_form_rank2(self):
        assert closed_form_pushforward(2, 0) == 2 * (H - c1)

    def test_unfactored_sum_agrees_small_ranks(self):
        for n in (2, 3, 4):
            for r in range(n):
                assert pushforward_via_fixed_point_classes(n, r) == veronese_pushforward(n, r)

    def test_oracle_equivalence_all_ranks(self):
        # localization against interpolation, the central cross-check
        for n in range(2, 7):
            for r in range(n):
                assert veronese_pushforward(n, r) == closed_form_pushforward(n, r)

    def test_degree_bookkeeping(self):
        from math import comb

        for n in (2, 3, 4, 5):
            for r in range(n):
                p = veronese_pushforward(n, r)
                assert p.is_homogeneous()
                assert p.weighted_degree() == comb(n + 1, 2) - 1 - (n - 1 - r)

    def test_top_power_has_unit_content(self):
        from eqchow.poly import NotDivisible, exact_divide

        for n in (2, 3, 4):
            p = veronese_pushforward(n, n - 1)
            with pytest.raises(NotDivisible):
                exact_divide(p, 2)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            veronese_pushforward(3, 3)
        with pytest.raises(ValueError):
            closed_form_pushforward(1, 0)

    def test_random_integer_evaluation_oracle(self):
        # numeric check of the full localization formula, independent of both
        # symbolic paths: exact rational per-point sums must hit the integer
        # value of the pushforward polynomial
        import itertools
        from fractions import Fraction

        rng = random.Random(31)
        for n, r in ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 2)):
            pushed = veronese_pushforward(n, r)
            for _ in range(20):
                lvals = [rng.randint(-9, 9) for _ in range(n)]
                while len(set(lvals)) < n:
                    lvals = [rng.randint(-9, 9) for _ in range(n)]
                h = rng.randint(-9, 9)
                point = {"H": h}
                for i in range(1, n + 1):
                    e = sum(_prod(c) for c in itertools.combinations(lvals, i))
                    point[f"c{i}"] = (-1) ** i * e
                total = Fraction(0)
                for j in range(n):
                    numerator = (-lvals[j]) ** r
                    for i in range(n):
                        if i != j:
                            numerator *= h + 2 * lvals[i]
                    for i in range(n):
                        for jj in range(i + 1, n):
                            numerator *= h + lvals[i] + lvals[jj]
                    denominator = 1
                    for i in range(n):
                        if i != j:
                            denominator *= lvals[i] - lvals[j]
                    total += Fraction(numerator, denominator)
                assert total == pushed.evaluate(point)


def _prod(xs):
    p = 1
    for x in xs:
        p *= x
    return p
