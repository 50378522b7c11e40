"""Fixed-point data and the squaring-embedding pushforwards."""

import random
from functools import lru_cache

import pytest

from eqchow import localization, symfunc
from eqchow.localization import (
    RepeatedRoots,
    closed_form_pushforward,
    fundamental_class,
    tangent_weights,
    veronese_pushforward,
)
from eqchow.poly import ONE, Polynomial, StructuredFraction, sum_fractions, var
from eqchow.symfunc import RepRoots, build_roots, require_rank, symmetric_to_chern

H = var("H")
c1, c2, c3 = var("c1"), var("c2"), var("c3")
l1, l2, l3 = var("l1"), var("l2"), var("l3")

RHAT = H**3 - 2 * c1 * H**2 + (c1**2 + c2) * H + (c3 - c1 * c2)


# A third route to the pushforward, used only here as a cross-check.
@lru_cache(maxsize=None)
def pushforward_via_fixed_point_classes(n: int, r: int) -> Polynomial:
    """Unfactored localization sum, using the target fixed-point classes as
    plain fundamental_class products.  Quadratically more expensive than
    ``veronese_pushforward``; used as an independent cross-check at small n.
    """
    require_rank(n, r=r)
    source, target = RepRoots(n, "E*").roots, RepRoots(n, "Sym2(E*)").roots
    # the squaring embedding maps the source point with root m to the
    # target point with root 2m
    total = sum_fractions(
        StructuredFraction.make(
            fundamental_class(target, target.index(2 * m)) * (-m) ** r,
            tangent_weights(source, j),
        )
        for j, m in enumerate(source)
    )
    assert not total.denominator
    return symmetric_to_chern(total.numerator, n)


class TestFixedPoints:
    def test_dual_standard_rank3_point0(self):
        roots = build_roots(3, "E*").roots
        j = roots.index(l1)
        assert -roots[j] == -l1
        assert set(tangent_weights(roots, j)) == {l2 - l1, l3 - l1}

    def test_sym2_rank3_has_six_points(self):
        assert len(build_roots(3, "Sym2(E*)").roots) == 6

    def test_rank2_smallest_case(self):
        roots = build_roots(2, "E*").roots
        j = roots.index(var("l2"))
        assert -roots[j] == -var("l2")
        assert tangent_weights(roots, j) == (var("l1") - var("l2"),)

    def test_tangent_weight_count(self):
        for n in (2, 3, 4):
            roots = build_roots(n, "Sym2(E*)").roots
            for j in range(len(roots)):
                weights = tangent_weights(roots, j)
                assert len(weights) == len(roots) - 1
                assert all(w for w in weights)

    def test_repeated_roots_rejected(self):
        bad = (l1, l1)
        with pytest.raises(RepeatedRoots):
            tangent_weights(bad, 0)
        with pytest.raises(RepeatedRoots):
            fundamental_class(bad, 0)

    @pytest.mark.parametrize("j", [-1, 3])
    def test_index_out_of_range_rejected(self, j):
        roots = build_roots(3, "E*").roots
        with pytest.raises(IndexError):
            tangent_weights(roots, j)
        with pytest.raises(IndexError):
            fundamental_class(roots, j)


class TestFundamentalClass:
    def test_sym2_rank3_doubled_root_point(self):
        roots = build_roots(3, "Sym2(E*)").roots
        j = roots.index(2 * l1)
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
        roots = build_roots(2, "E*").roots
        j = roots.index(var("l1"))
        assert fundamental_class(roots, j) == H + var("l2")

    def test_restriction_gives_tangent_product(self):
        # substituting the point's restriction recovers the tangent weights
        for desc in ("E*", "Sym2(E*)", "Wedge2(E*)"):
            roots = build_roots(3, desc).roots
            for j in range(len(roots)):
                cls = fundamental_class(roots, j)
                value = cls.substitute("H", -roots[j])
                expected = ONE
                for w in tangent_weights(roots, j):
                    expected = expected * w
                assert value == expected

    def test_target_class_factors_through_pair_product(self):
        # the factorization the fast localization path relies on
        from eqchow.localization import _wedge_total_chern

        for n in range(2, 7):
            source = build_roots(n, "E*").roots
            target = build_roots(n, "Sym2(E*)").roots
            pairs = _wedge_total_chern(n)
            for j, m in enumerate(source):
                cls = fundamental_class(target, target.index(2 * m))
                partial = ONE
                for i, r in enumerate(source):
                    if i != j:
                        partial = partial * (H + 2 * r)
                assert cls == partial * pairs


class TestVeroneseCorrespondence:
    def test_point_map_doubles_roots(self):
        for n in (2, 3, 4, 5):
            source = build_roots(n, "E*").roots
            target = build_roots(n, "Sym2(E*)").roots
            # each doubled source root is a target root, so the squaring
            # embedding maps fixed points to fixed points, injectively
            point_map = [target.index(2 * m) for m in source]
            assert len(set(point_map)) == n


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

    def test_localization_route_never_reads_chern_polynomial(self, monkeypatch):
        # the two routes are independent: the closed form reads
        # chern_polynomial, the localization sum must not, even through a
        # cache filled before
        expected = {
            (n, r): veronese_pushforward(n, r) for n in range(2, 6) for r in range(n)
        }

        def refuse(module):
            raise AssertionError(f"chern_polynomial({module}) was read")

        for module in (symfunc, localization):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
            monkeypatch.setattr(module, "chern_polynomial", refuse)
        for (n, r), value in expected.items():
            assert veronese_pushforward(n, r) == value

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
        # both pushforwards are rows of tests/test_symfunc.py::test_rank_domain;
        # the reference route keeps their domain
        for n, r in ((1, 0), (2, -1), (3, 3)):
            with pytest.raises(ValueError, match=r"\Aneed n >= 2"):
                pushforward_via_fixed_point_classes(n, r)

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
