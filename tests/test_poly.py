"""Polynomial core: arithmetic, substitution, exact division, fractions,
canonical serialization."""

import random

import pytest

from eqchow.poly import (
    LinearFormProduct,
    NotDivisible,
    ONE,
    Polynomial,
    StructuredFraction,
    ZERO,
    const,
    exact_divide,
    make_mono,
    mono_exponents,
    parse_polynomial,
    split_mono,
    sum_fractions,
    var,
    var_index,
    var_key,
    var_weight,
)

H, K = var("H"), var("K")
c1, c2, c3 = var("c1"), var("c2"), var("c3")
l1, l2, l3 = var("l1"), var("l2"), var("l3")


def rand_poly(rng, variables, max_terms=6, max_exp=3, max_coeff=9):
    p = ZERO
    for _ in range(rng.randint(0, max_terms)):
        t = const(rng.randint(-max_coeff, max_coeff))
        for v in variables:
            e = rng.randint(0, max_exp)
            if e:
                t = t * var(v) ** e
        p = p + t
    return p


def eval_agree(p, q, rng, points=25):
    names = sorted(set(p.variables()) | set(q.variables()))
    for _ in range(points):
        point = {v: rng.randint(-7, 7) for v in names}
        if p.evaluate(point) != q.evaluate(point):
            return False
    return True


class TestSubstitute:
    def test_pivotal_cubic_collapses_to_c3(self):
        # the substitution that turns the excision relations into c3-multiples
        p = H**3 - 2 * c1 * H**2 + (c1**2 + c2) * H + (c3 - c1 * c2)
        assert p.substitute("H", c1) == c3

    def test_pivotal_cubic_against_evaluation_oracle(self):
        rng = random.Random(11)
        p = H**3 - 2 * c1 * H**2 + (c1**2 + c2) * H + (c3 - c1 * c2)
        manual = (
            c1**3 - 2 * c1 * c1**2 + (c1**2 + c2) * c1 + (c3 - c1 * c2)
        )
        assert eval_agree(p.substitute("H", c1), manual, rng)

    def test_zero_substitution(self):
        assert H.substitute("H", ZERO) == ZERO

    def test_rank4_alpha1_at_twist1(self):
        alpha1 = 4 * H - 2 * c1
        assert alpha1.substitute("H", c1) == 2 * c1

    def test_substitution_preserves_homogeneity(self):
        p = H**2 - c1 * H + c2
        q = p.substitute("H", 3 * c1)
        assert q.is_homogeneous() and q.weighted_degree() == 2

    def test_random_substitution_matches_evaluation(self):
        rng = random.Random(12)
        for _ in range(50):
            p = rand_poly(rng, ["H", "c1", "c2"])
            q = rand_poly(rng, ["c1", "c2"], max_terms=3, max_exp=2)
            subbed = p.substitute("H", q)
            point = {v: rng.randint(-5, 5) for v in ["c1", "c2"]}
            point_h = dict(point)
            point_h["H"] = q.evaluate(point)
            assert subbed.evaluate(point) == p.evaluate(point_h)


class TestExactDivide:
    def test_linear_factor(self):
        assert exact_divide((l2 - l1) * (l3 - l1), l2 - l1) == l3 - l1

    def test_integer_content(self):
        p = H**3 - 2 * c1 * H**2 + (c1**2 + c2) * H + (c3 - c1 * c2)
        assert exact_divide(4 * p, const(2)) == 2 * p

    def test_remainder_case(self):
        with pytest.raises(NotDivisible):
            exact_divide(l1 + l2, l1)

    def test_coefficient_nondivisibility(self):
        with pytest.raises(NotDivisible):
            exact_divide(3 * l1, const(2))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(l1, ZERO)

    def test_zero_dividend(self):
        assert exact_divide(ZERO, l1) == ZERO


class TestFractions:
    def test_antisymmetric_pair_cancels(self):
        f1 = StructuredFraction.make(ONE, [l1 - l2])
        f2 = StructuredFraction.make(ONE, [l2 - l1])
        total = sum_fractions([f1, f2])
        assert total.is_polynomial() and total.numerator == ZERO

    def test_denominator_sign_normalization(self):
        f = StructuredFraction.make(ONE, [l2 - l1])
        # the stored factor has positive coefficient on its smallest monomial
        (factor, mult), = f.denominator.factors
        assert mult == 1 and factor == l1 - l2
        assert f.numerator == -1 * ONE

    def test_empty_denominator_is_plain_polynomial(self):
        f = StructuredFraction.make(c1 + c2)
        assert f.is_polynomial() and f.as_polynomial() == c1 + c2

    def test_zero_numerator_clears_denominator(self):
        f = StructuredFraction.make(ZERO, [l1 - l2])
        assert not f.denominator.factors

    def test_reduction_clears_exact_quotient(self):
        f = StructuredFraction.make((l1 - l2) * (l1 + l3), [l1 - l2]).reduced()
        assert f.is_polynomial() and f.as_polynomial() == l1 + l3

    def test_lagrange_sum_rank3(self):
        # sum over the three fixed points of [Q_j]-style numerators
        ls = [l1, l2, l3]
        fractions = []
        for j in range(3):
            num = ONE
            for i in range(3):
                if i != j:
                    num = num * (H + 2 * ls[i])
            dens = [ls[i] - ls[j] for i in range(3) if i != j]
            fractions.append(StructuredFraction.make(num, dens))
        total = sum_fractions(fractions)
        assert total.is_polynomial()
        assert total.as_polynomial() == 4 * ONE  # 2^(n-1) at n=3, r=0

    def test_rejects_nonlinear_factor(self):
        with pytest.raises(ValueError):
            StructuredFraction.make(ONE, [l1 * l2])

    def test_linear_form_product_invariants(self):
        lfp, sign = LinearFormProduct.from_factors([l2 - l1, l1 - l2, (l1 + l2, 2)])
        assert sign == -1
        assert all(m > 0 for _, m in lfp.factors)
        assert lfp.degree() == 4
        assert lfp.expand() == (l1 - l2) ** 2 * (l1 + l2) ** 2


class TestCanonicalForm:
    def test_no_zero_coefficients_stored(self):
        p = (l1 + l2) - l2 - l1
        assert p.terms == {}

    def test_equality_is_term_map_identity(self):
        assert (c1 + c2) * (c1 - c2) == c1**2 - c2**2

    def test_weighted_degrees(self):
        assert c3.weighted_degree() == 3
        assert (c1 * c3).weighted_degree() == 4
        assert H.weighted_degree() == 1
        assert ZERO.weighted_degree() == -1

    def test_text_form(self):
        assert (4 * c3 + 2 * c1 * c3).to_text() == "4*c3 + 2*c1*c3"
        assert ZERO.to_text() == "0"
        assert (-c1).to_text() == "-c1"

    def test_text_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(200):
            p = rand_poly(rng, ["c1", "c2", "H", "l1"])
            assert parse_polynomial(p.to_text()) == p
            assert parse_polynomial(p.to_text()).to_text() == p.to_text()

    def test_json_round_trip_random(self):
        rng = random.Random(14)
        for _ in range(200):
            p = rand_poly(rng, ["c1", "c3", "K", "l2"])
            assert Polynomial.from_json(p.to_json()) == p
            assert Polynomial.from_json(p.to_json()).to_json() == p.to_json()

    def test_json_coefficients_are_decimal_strings(self):
        obj = (2**80 * c1).to_json_obj()
        assert obj == [{"coeff": str(2**80), "exps": {"c1": 1}}]

    def test_hash_consistency(self):
        assert hash(c1 + c2) == hash(c2 + c1)
        assert len({c1 + c2, c2 + c1}) == 1

    def test_big_coefficients_stay_exact(self):
        p = (const(2**64) * c1 + ONE) ** 3
        assert p.coefficient((("c1", 3),)) == 2**192


class TestNameTable:
    # (sort key, weight, LaTeX form) of each name; every monomial order and
    # rendered output depends on these values
    PINNED = {
        "c1": ((0, 1, "c"), 1, "c_{1}"),
        "c12": ((0, 12, "c"), 12, "c_{12}"),
        "l9": ((4, 9, "l"), 1, "l_{9}"),
        "l10": ((4, 10, "l"), 1, "l_{10}"),
        "H": ((1, 0, "H"), 1, "H"),
        "K": ((2, 0, "K"), 1, "K"),
        "xi": ((3, 0, "xi"), 1, "xi"),
        "t3": ((5, 3, "t"), 1, "t_{3}"),
        "foo_bar": ((8, 0, "foo_bar"), 1, "foo_bar"),
        "x1y": ((9, 0, "x1y"), 1, "x1y"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_key_weight_latex(self, name):
        key, weight, latex = self.PINNED[name]
        assert var_key(name) == key
        assert var_weight(name) == weight
        assert var(name).to_latex() == latex

    def test_indices_compare_as_integers(self):
        assert var_key("l9") < var_key("l10")
        assert var("l10").variables() == ("l10",)
        assert (var("l10") + var("l9")).variables() == ("l9", "l10")

    @pytest.mark.parametrize("name", ["l01", "l0", "c0", "t007"])
    def test_index_with_leading_zero_rejected(self, name):
        # l01 would tie with l1 (and l0 with l), so one monomial would have
        # two tuples: l01*l1 != l1*l01
        with pytest.raises(ValueError, match="leading zero"):
            var(name)
        with pytest.raises(ValueError, match="leading zero"):
            parse_polynomial(f"{name}*l1")

    def test_var_index_reads_the_stem(self):
        assert var_index("l10", "l") == 10
        assert var_index("c3", "c") == 3
        assert var_index("c3", "l") is None
        assert var_index("H", "H") is None
        assert var_index("x1y", "x") is None


class TestMonomialHelpers:
    def test_make_mono_sorts_and_drops_zero_exponents(self):
        mono = make_mono([("l2", 1), ("H", 0), ("c12", 2), ("c3", 4)])
        assert mono == (("c3", 4), ("c12", 2), ("l2", 1))
        assert make_mono([]) == ()

    def test_split_and_exponents_agree_with_the_monomial(self):
        mono = make_mono([("l1", 2), ("H", 1), ("l3", 1), ("c2", 1)])
        inside, rest = split_mono(mono, {"l1", "l2", "l3"})
        assert inside == (("l1", 2), ("l3", 1))
        assert rest == (("c2", 1), ("H", 1))
        assert mono_exponents(mono, ("l1", "l2", "l3")) == [2, 0, 1]
        assert make_mono(inside + rest) == mono
