"""Polynomial core: arithmetic, substitution, exact division, fractions,
canonical serialization."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from eqchow import poly
from eqchow.poly import (
    NotDivisible,
    ONE,
    Polynomial,
    StructuredFraction,
    ZERO,
    divides,
    exact_divide,
    make_mono,
    mono_exponents,
    mono_pairs,
    mono_str,
    monomials_of_degree,
    parse_polynomial,
    sum_fractions,
    term_key,
    var,
    var_index,
    var_key,
    var_weight,
)
from eqchow.symfunc import NotSymmetric, chern_to_roots, symmetric_to_chern

H, K = var("H"), var("K")
c1, c2, c3 = var("c1"), var("c2"), var("c3")
l1, l2, l3 = var("l1"), var("l2"), var("l3")


def rand_poly(rng, variables, max_terms=6, max_exp=3, max_coeff=9):
    p = ZERO
    for _ in range(rng.randint(0, max_terms)):
        t = Polynomial.constant(rng.randint(-max_coeff, max_coeff))
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


class TestEvaluateAt:
    def test_several_points_agree_with_evaluate_at_each(self):
        rng = random.Random(29)
        names = ["c1", "c2", "c3", "H", "l1", "l2", "l3"]
        for _ in range(40):
            p = rand_poly(rng, names, max_terms=8)
            points = [{v: rng.randint(-9, 9) for v in names} for _ in range(3)]
            assert p.evaluate_at(points) == [p.evaluate(q) for q in points]
        assert ZERO.evaluate_at([{}, {"c1": 2}]) == [0, 0]
        assert (Polynomial.constant(-7) + 0 * c1).evaluate_at([{}]) == [-7]
        assert (c1 + H).evaluate_at([]) == []

    def test_only_the_variables_present_need_values(self):
        # c3 and l3 have slots (this file makes them) but are absent from p
        p = 3 * c1**2 * H - l2 + 5
        assert p.evaluate_at([{"c1": 2, "H": -1, "l2": 4}]) == [-11]
        with pytest.raises(KeyError):
            p.evaluate_at([{"c1": 2, "H": -1, "l2": 4}, {"c1": 2, "l2": 4}])
        with pytest.raises(KeyError):
            p.evaluate({"c1": 1, "H": 1})


class TestExactDivide:
    def test_linear_factor(self):
        assert exact_divide((l2 - l1) * (l3 - l1), l2 - l1) == l3 - l1

    def test_integer_content(self):
        p = H**3 - 2 * c1 * H**2 + (c1**2 + c2) * H + (c3 - c1 * c2)
        assert exact_divide(4 * p, Polynomial.constant(2)) == 2 * p

    def test_remainder_case(self):
        with pytest.raises(NotDivisible):
            exact_divide(l1 + l2, l1)

    def test_coefficient_nondivisibility(self):
        with pytest.raises(NotDivisible):
            exact_divide(3 * l1, Polynomial.constant(2))

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
        assert not total.denominator and total.numerator == ZERO

    def test_denominator_sign_normalization(self):
        f = StructuredFraction.make(ONE, [l2 - l1])
        # the stored factor has positive coefficient on its smallest monomial
        (factor, mult), = f.denominator
        assert mult == 1 and factor == l1 - l2
        assert f.numerator == -1 * ONE

    def test_empty_denominator_is_plain_polynomial(self):
        f = StructuredFraction.make(c1 + c2)
        assert not f.denominator and f.numerator == c1 + c2

    def test_zero_numerator_clears_denominator(self):
        f = StructuredFraction.make(ZERO, [l1 - l2])
        assert not f.denominator

    def test_reduction_clears_exact_quotient(self):
        f = StructuredFraction.make((l1 - l2) * (l1 + l3), [l1 - l2]).reduced()
        assert not f.denominator and f.numerator == l1 + l3

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
        assert not total.denominator
        assert total.numerator == 4 * ONE  # 2^(n-1) at n=3, r=0

    def test_rejects_nonlinear_factor(self):
        with pytest.raises(ValueError):
            StructuredFraction.make(ONE, [l1 * l2])

    def test_linear_form_product_invariants(self):
        f = StructuredFraction.make(ONE, [l2 - l1, l1 - l2, l1 + l2, l1 + l2])
        assert f.numerator == -1 * ONE
        assert f.denominator == ((l1 - l2, 2), (l1 + l2, 2))


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

    @pytest.mark.parametrize(
        "text",
        [
            ")",
            "c1*)",
            "c1**2",
            "c1^2*(c2+)",
            "+*c1",
            # the text form writes no parenthesis and no sign inside a term
            "(c1)",
            "fresh_a*(c1 + c2)",
            "fresh_b*-c2",
            "--fresh_c",
            "c1 + -fresh_d",
        ],
    )
    def test_an_operator_where_a_factor_belongs_is_rejected(self, text):
        # a ")" or an operator is never read as a variable name, and a
        # rejected text adds no name, even one read before the fault
        before = set(poly._VARS)
        with pytest.raises(ValueError, match="expected a factor"):
            parse_polynomial(text)
        assert set(poly._VARS) == before

    @pytest.mark.parametrize(
        "text, message",
        [
            ("c1 $", "cannot tokenize polynomial at: ' \\$'"),
            ("fresh_e +", "unexpected end"),
            ("-", "unexpected end"),
            ("fresh_f^", "exponent must be a literal integer"),
            ("c1^x", "exponent must be a literal integer"),
            ("2 fresh_g", "trailing tokens in polynomial text: \\['fresh_g'\\]"),
            # no implicit product and no power of an integer
            ("fresh_h(c2)", "trailing tokens"),
            ("2^3", "trailing tokens"),
        ],
    )
    def test_text_outside_the_text_form_is_rejected(self, text, message):
        before = set(poly._VARS)
        with pytest.raises(ValueError, match=message):
            parse_polynomial(text)
        assert set(poly._VARS) == before

    @pytest.mark.parametrize("text", ["", "   "])
    def test_blank_text_is_zero(self, text):
        assert parse_polynomial(text) == ZERO

    def test_json_coefficients_are_decimal_strings(self):
        obj = (2**80 * c1).to_json_obj()
        assert obj == [{"coeff": str(2**80), "exps": {"c1": 1}}]

    def test_hash_consistency(self):
        assert hash(c1 + c2) == hash(c2 + c1)
        assert len({c1 + c2, c2 + c1}) == 1

    @pytest.mark.parametrize("c", [0, 1, -2, 2**70])
    def test_a_constant_hashes_as_the_int_it_equals(self, c):
        for p in (Polynomial.constant(c), (c1 + c) - c1):
            assert p == c and hash(p) == hash(c)
            assert p in {c} and c in {p}
            assert {c: "x"}.get(p) == "x"
        assert ONE in {1} and ZERO in {0}

    def test_big_coefficients_stay_exact(self):
        p = (Polynomial.constant(2**64) * c1 + ONE) ** 3
        assert p.terms.get(make_mono([("c1", 3)]), 0) == 2**192


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("fresh_z + l01", "leading zero"),
            ("2*fresh_y*c0^2", "leading zero"),
            ("fresh_x - fresh_w*c65536", "weight above"),
        ],
    )
    def test_a_bad_name_gives_no_name_of_its_text_a_slot(self, text, message):
        # every name of the text is checked before any gets a slot
        before = set(poly._VARS)
        with pytest.raises(ValueError, match=message):
            parse_polynomial(text)
        assert set(poly._VARS) == before

    @pytest.mark.parametrize(
        "text", ["fresh_q^40000", "fresh_r^20000*fresh_r^20000", "fresh_s^32768"]
    )
    def test_an_overflowing_exponent_gives_no_name_of_its_text_a_slot(self, text):
        # a term's exponents of each name are summed against the field limit
        # before any name gets a slot
        before = set(poly._VARS)
        with pytest.raises(OverflowError, match="field limit 32768"):
            parse_polynomial(text)
        assert set(poly._VARS) == before

    def test_exponents_summing_below_the_field_limit_read_back(self):
        assert parse_polynomial("fresh_t^16383*fresh_t^16384") == var("fresh_t") ** 32767

    @pytest.mark.parametrize(
        "name", ["", "c1^2", "a b", "1a", "c-1", "x*y", "(H)", "c\u0661", "\u00e9"]
    )
    def test_a_name_that_is_not_a_name_token_is_rejected(self, name):
        # each would render text that reads back as something else, or not
        # at all; a non-ASCII digit would also tie c\u0661 with c1
        before = set(poly._VARS)
        with pytest.raises(ValueError, match="not a name token"):
            var(name)
        assert set(poly._VARS) == before

    @pytest.mark.parametrize(
        "name", ["c1", "c12", "l10", "t3", "H", "K", "xi", "zslot99", "foo_bar", "x1y"]
    )
    def test_a_name_token_reads_back(self, name):
        p = 2 * var(name) ** 2 + 1
        assert parse_polynomial(p.to_text()) == p

    def test_var_index_reads_the_stem(self):
        assert var_index("l10", "l") == 10
        assert var_index("c3", "c") == 3
        assert var_index("c3", "l") is None
        assert var_index("H", "H") is None
        assert var_index("x1y", "x") is None


class TestMonomialHelpers:
    def test_make_mono_sorts_and_drops_zero_exponents(self):
        mono = make_mono([("l2", 1), ("H", 0), ("c12", 2), ("c3", 4)])
        assert mono_pairs(mono) == (("c3", 4), ("c12", 2), ("l2", 1))
        assert mono == make_mono([("c3", 4), ("c12", 2), ("l2", 1)])
        assert mono_pairs(make_mono([])) == ()
        assert make_mono([]) == make_mono([("H", 0)])

    def test_split_and_exponents_agree_with_the_monomial(self):
        mono = make_mono([("l1", 2), ("H", 1), ("l3", 1), ("c2", 1)])
        ls = ("l1", "l2", "l3")
        assert mono_exponents(mono, ls) == [2, 0, 1]
        # the split the symmetric rewrite makes: the l-part, and the rest
        inside = make_mono(zip(ls, mono_exponents(mono, ls)))
        rest = mono - inside
        assert mono_pairs(inside) == (("l1", 2), ("l3", 1))
        assert mono_pairs(rest) == (("c2", 1), ("H", 1))
        assert make_mono(mono_pairs(inside) + mono_pairs(rest)) == mono
        assert Polynomial({inside: 1}).mono_shift(rest) == Polynomial({mono: 1})


# The field limit of the packed layout: exponents stay below 2**15.
LIMIT = 2**15

class TestPackedLayout:
    """Hazards of packing a monomial's exponents into one int."""

    def test_a_borrow_across_fields_is_never_divisible(self):
        # l2*H minus l1 borrows from the l1 field; no other field may lend
        assert not divides(l1, l2 * H)
        assert not divides(l1**2, l1 * l2**5 * H**3)
        with pytest.raises(NotDivisible):
            exact_divide(c2 * H, c1)
        with pytest.raises(NotDivisible):
            exact_divide(l3 * c3**4, l1 * l3)
        assert exact_divide(l1 * l2**5 * H**3, l1 * H) == l2**5 * H**2
        assert not divides(l1 + H, l2 * H**2 + l2 * H)

    def test_exponent_at_the_field_limit_overflows(self):
        top = make_mono([("H", LIMIT - 1)])
        assert mono_pairs(top) == (("H", LIMIT - 1),)
        with pytest.raises(OverflowError):
            make_mono([("H", LIMIT)])
        with pytest.raises(OverflowError):  # would spill into the next field
            make_mono([("H", 2 * LIMIT + 1)])
        with pytest.raises(OverflowError):
            make_mono([("H", LIMIT - 1), ("H", 1)])
        with pytest.raises(ValueError):
            make_mono([("H", -1)])
        near = H ** (LIMIT - 1)
        assert (near * c1).terms.get(make_mono([("c1", 1), ("H", LIMIT - 1)]), 0) == 1
        with pytest.raises(OverflowError):
            near * H
        with pytest.raises(OverflowError):
            (near + c1) * (H + l1)
        with pytest.raises(OverflowError):
            H ** (LIMIT // 2) * H ** (LIMIT // 2)
        with pytest.raises(OverflowError):
            H**LIMIT
        with pytest.raises(OverflowError):
            near.mono_shift(make_mono([("H", 1)]))
        with pytest.raises(OverflowError):
            Polynomial({(("H", LIMIT),): 1})
        with pytest.raises(OverflowError):  # quotient term l1*H^(LIMIT-1) times H
            exact_divide(l1**2 * near, l1 + H)
        # the product's other fields never see the overflow: nothing wraps
        assert (near * l1).variables() == ("H", "l1")

    def test_a_late_variable_orders_and_renders_by_name(self):
        # c29 is first seen here, after l10: it gets a later slot (a larger
        # packed int) but still comes first in the variable order
        l10 = var("l10")
        late = var("c29")
        assert make_mono([("c29", 1)]) > make_mono([("l10", 1)])
        p = l10 * late**2 + H * late + 3 * l10
        assert p.variables() == ("c29", "H", "l10")
        assert p.to_text() == "3*l10 + c29*H + c29^2*l10"
        assert p.to_latex() == "3l_{10} + c_{29}H + c_{29}^{2}l_{10}"
        assert p.to_json_obj()[2] == {"coeff": "1", "exps": {"c29": 2, "l10": 1}}
        last = max(p.terms, key=term_key)
        assert (last, p.terms[last]) == (make_mono([("c29", 2), ("l10", 1)]), 1)
        assert mono_str(make_mono([("l10", 1), ("c29", 2)])) == "c29^2*l10"
        assert parse_polynomial(p.to_text()) == p

    def test_threads_first_seeing_names_agree_on_their_slots(self):
        # Each thread meets the same new names in its own order; a slot given
        # out twice, or a guard bit lost, would break one of the asserts.
        names = [f"zslot{i}" for i in range(1, 41)]
        seen = []
        read = []  # each name read back at once, while others may be new
        # a polynomial rendered while the names arrive; they sort before
        # zslot99, so each one moves zslot99's place in the decoder
        fixed = (c1 + 2 * H * var("zslot99") - c3 * l2) ** 3 + var("xi") * c2
        text, obj = fixed.to_text(), fixed.to_json_obj()
        renders = []

        def meet(order):
            monos = {}
            for v in order:
                monos[v] = make_mono([(v, 1)])
                read.append(mono_pairs(monos[v]) == ((v, 1),))
                renders.append(fixed.to_text() == text and fixed.to_json_obj() == obj)
            seen.append(monos)

        threads = [
            threading.Thread(target=meet, args=(names[i:] + names[:i],))
            for i in range(0, 40, 5)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == len(threads)
        assert len(read) == len(threads) * len(names) and all(read)
        assert len(renders) == len(read) and all(renders)
        assert all(s == seen[0] for s in seen)
        assert len(set(seen[0].values())) == len(names)
        for v in names:
            assert mono_pairs(seen[0][v]) == ((v, 1),)
            with pytest.raises(OverflowError):
                var(v) ** (LIMIT - 1) * var(v)

    def test_pairs_spelling_of_a_key(self):
        p = Polynomial({(("c1", 1), ("H", 2)): 3})
        assert p == 3 * c1 * H**2
        assert hash(p) == hash(3 * c1 * H**2)
        assert p.terms.get(make_mono([("H", 2), ("c1", 1)]), 0) == 3
        assert Polynomial({(("c1", 1),): 2, make_mono([("c1", 1)]): -2}) == ZERO

    def test_a_weight_past_the_field_is_rejected(self):
        with pytest.raises(ValueError):
            var("c65536")
        assert make_mono([("c65535", 2)]) & poly._WEIGHT == 2 * 65535


# Names of weights 1, 2 and 7, so that a weight differs from an exponent sum.
WEIGHT_NAMES = ("c1", "c2", "c7", "H", "xi", "l1", "l2", "l3")
_monos = st.dictionaries(
    st.sampled_from(WEIGHT_NAMES), st.integers(0, 4), max_size=4
).map(lambda exps: make_mono(exps.items()))
_polys = st.dictionaries(_monos, st.integers(-9, 9), max_size=5).map(Polynomial)


def _weight_field_holds(monos):
    for m in monos:
        assert m & poly._WEIGHT == sum(e * var_weight(v) for v, e in mono_pairs(m))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    _polys,
    _polys,
    st.sampled_from(WEIGHT_NAMES),
    st.permutations(WEIGHT_NAMES),
    st.sets(st.sampled_from(WEIGHT_NAMES)),
    st.integers(0, 7),
)
def test_the_weight_field_is_the_weighted_degree(a, b, name, image, names, degree):
    product = a * b
    _weight_field_holds(product.terms)
    if b:
        quotient = exact_divide(product, b)
        assert quotient == a
        _weight_field_holds(quotient.terms)
    for m in product.terms:
        inside = make_mono(zip(names, mono_exponents(m, names)))
        rest = m - inside
        _weight_field_holds((inside, rest))
        assert inside + rest == m
    _weight_field_holds(a.substitute(name, b).terms)
    _weight_field_holds(a.rename(dict(zip(WEIGHT_NAMES, image))).terms)
    ordered = tuple(sorted(names, key=var_key))
    members = monomials_of_degree(ordered, degree)
    _weight_field_holds(members)
    assert all(m & poly._WEIGHT == degree for m in members)


class TestValuesAfterOrdering:
    def test_weight_and_name_reads(self):
        # (a weight-1 + a weight-2 + a weight-4 term)^3 plus a weight-3 term
        p = (c1 + 2 * H * l1 - c3 * l2) ** 3 + var("xi") * c2
        assert p.evaluate({v: 2 for v in p.variables()}) == p.rename(
            {"l1": "l2", "l2": "l1"}
        ).evaluate({v: 2 for v in p.variables()})
        p.to_text()
        p.to_json_obj()
        assert p.weighted_degree() == 12
        assert not p.is_homogeneous()
        assert sorted(p.homogeneous_components()) == [3, 4, 5, 6, 7, 8, 9, 10, 12]

    def test_division_and_the_symmetric_rewrite(self):
        f = (H + 2 * l1 - l2) * (K + l1 * l3) + c2
        g = (l1 - l3) ** 2 + H * l2
        product = f * g
        q = chern_to_roots(c1 * c2 - 3 * c3 + c1**3, 3) * (H + K) ** 2
        assert exact_divide(product, g) == f
        assert divides(f, product) and not divides(f + 1, product)
        with pytest.raises(NotDivisible):
            exact_divide(product + l2, f)
        assert symmetric_to_chern(q, 3) == (c1 * c2 - 3 * c3 + c1**3) * (H + K) ** 2
        with pytest.raises(NotSymmetric):
            symmetric_to_chern(q + l1**3, 3)


class TestNotDivisibleMessage:
    def test_a_large_dividend_gives_a_short_message(self):
        # the message names term counts and leading terms, never whole operands
        p = (c1 + c2 + c3 + H + l1 + l2 + l3) ** 9 + 1
        q = H + 2 * l1
        assert len(p) > 5000
        with pytest.raises(NotDivisible) as caught:
            exact_divide(p, q)
        message = str(caught.value)
        assert len(message) < 200
        assert message == (
            f"a {len(p)}-term polynomial led by 1 is not divisible by "
            "a 2-term polynomial led by H"
        )


# Multi-digit indices, c-weights above 1 and unindexed stems, so that the
# variable order differs from both the name order and the first-use order.
ORDER_POOL = (
    "c1", "c2", "c3", "c10", "c12", "H", "K", "xi",
    "l1", "l2", "l9", "l10", "l11", "t3", "t12", "u", "zeta", "w2",
)


_order_polys = st.dictionaries(
    st.dictionaries(st.sampled_from(ORDER_POOL), st.integers(0, 3), max_size=4).map(
        lambda exps: make_mono(exps.items())
    ),
    st.integers(-9, 9),
    max_size=12,
).map(Polynomial)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.sampled_from(ORDER_POOL), min_size=1, max_size=5, unique=True),
    st.integers(0, 12),
    _order_polys,
    # few names, so the slot table stays small; the first draw of each is new
    st.integers(900, 907).map(lambda i: f"c{i}"),
)
def test_monomial_basis_comes_in_the_canonical_order(names, degree, p, fresh):
    ordered = tuple(sorted(names, key=var_key))
    basis = monomials_of_degree(ordered, degree)
    assert list(basis) == sorted(basis, key=term_key)
    assert len(set(basis)) == len(basis)
    if ordered != tuple(names):
        with pytest.raises(ValueError, match="variable order"):
            monomials_of_degree(tuple(names), degree)
    # rendering sorts by the decoded exponents; term_key defines the order
    def in_term_key_order(q):
        pairs = [mono_pairs(m) for m in sorted(q.terms, key=term_key)]
        return [pairs for pairs, _ in q._sorted_pairs()] == pairs

    text = p.to_text()
    assert in_term_key_order(p)
    # a c-name met after p is built takes the next slot, yet sorts before
    # every non-c variable of p: p's text must not move
    late = var(fresh)
    assert p.to_text() == text
    assert in_term_key_order(p) and in_term_key_order(p * (late + 1) + late * late)


def test_a_repeated_variable_is_rejected():
    with pytest.raises(ValueError, match="variable order"):
        monomials_of_degree(("c1", "c1", "H"), 2)
