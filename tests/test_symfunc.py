"""Root multisets, symmetry checking, and the rewrite into Chern classes."""

import itertools
import json
import os
import random
import subprocess
import sys
from math import comb

import pytest

import eqchow
from eqchow import localization, pipeline, symfunc
from eqchow.poly import (
    ONE,
    ZERO,
    Polynomial,
    exact_divide,
    make_mono,
    mono_exponents,
    poly_sort_key,
    var,
)
from eqchow.symfunc import (
    BASES,
    NotSymmetric,
    RepRoots,
    UnsupportedModule,
    build_roots,
    chern_classes,
    chern_polynomial,
    chern_to_roots,
    e_top,
    elementary_symmetric,
    is_symmetric,
    l_vars,
    symmetric_to_chern,
    total_chern_poly,
)

H, K = var("H"), var("K")
c1, c2, c3 = var("c1"), var("c2"), var("c3")
l1, l2, l3 = var("l1"), var("l2"), var("l3")


def chern_values(lvals):
    """Numeric c_i from numeric l-values: signed elementary symmetric sums."""
    n = len(lvals)
    out = {}
    for i in range(1, n + 1):
        e = sum(
            1 * _prod(combo) for combo in itertools.combinations(lvals, i)
        )
        out[f"c{i}"] = (-1) ** i * e
    return out


def _prod(xs):
    p = 1
    for x in xs:
        p *= x
    return p


class TestBuildRoots:
    def test_sym2_rank3(self):
        roots = build_roots(3, "Sym2(E*)")
        expected = {2 * l1, 2 * l2, 2 * l3, l1 + l2, l1 + l3, l2 + l3}
        assert set(roots.roots) == expected and len(roots.roots) == 6

    def test_dual_standard_rank3(self):
        assert set(build_roots(3, "E*").roots) == {l1, l2, l3}

    def test_standard_is_negated(self):
        assert set(build_roots(3, "E").roots) == {-l1, -l2, -l3}

    def test_trivial_twist(self):
        assert build_roots(3, "det^0*Wedge2(E*)").roots == build_roots(3, "Wedge2(E*)").roots

    def test_twist_adds_determinant_root(self):
        twisted = build_roots(3, "det^2*Wedge2(E*)")
        det = -2 * (l1 + l2 + l3)
        expected = {l1 + l2 + det, l1 + l3 + det, l2 + l3 + det}
        assert set(twisted.roots) == expected

    def test_dimensions(self):
        for n in range(2, 7):
            assert len(build_roots(n, "E*").roots) == n
            assert len(build_roots(n, "Sym2(E*)").roots) == n * (n + 1) // 2
            assert len(build_roots(n, "Wedge2(E*)").roots) == n * (n - 1) // 2

    def test_label_is_the_descriptor(self):
        for desc in ("E", "Sym2(E*)", "det^2*Wedge2(E*)", "det^-1*E*"):
            assert build_roots(3, desc).label == desc
        assert build_roots(3, "det^0*E").label == "E"

    def test_unsupported_descriptor(self):
        with pytest.raises(UnsupportedModule):
            build_roots(3, "Sym3(E*)")
        with pytest.raises(UnsupportedModule):
            build_roots(1, "E*")

    @pytest.mark.parametrize("label", ["Sym2 (E*)", "det^1 *E", " E*"])
    def test_a_label_with_a_space_is_unsupported(self, label):
        # a label is read exactly as ``RepRoots.label`` writes it
        with pytest.raises(UnsupportedModule):
            build_roots(3, label)

    def test_module_is_rank_base_and_twist(self):
        assert RepRoots.__slots__ == ("rank", "base", "k")
        assert build_roots(3, "det^-2*Sym2(E*)") == RepRoots(3, "Sym2(E*)", -2)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2, 3])
    @pytest.mark.parametrize("base", BASES)
    def test_label_parses_back_to_the_module(self, n, k, base):
        module = RepRoots(n, base, k)
        assert build_roots(n, module.label) == module
        assert module.roots == tuple(sorted(module.roots, key=poly_sort_key))

    def test_unsupported_module_value(self):
        with pytest.raises(UnsupportedModule):
            RepRoots(3, "Sym3(E*)")
        with pytest.raises(UnsupportedModule):
            RepRoots(1, "E*")

    def test_weyl_invariance_all_permutations(self):
        for n in range(2, 7):
            names = [f"l{i}" for i in range(1, n + 1)]
            for desc in ("E", "E*", "Sym2(E*)", "Wedge2(E*)", "det^1*Wedge2(E*)"):
                roots = build_roots(n, desc)
                bag = sorted(r.to_text() for r in roots.roots)
                for perm in itertools.permutations(names):
                    mapping = dict(zip(names, perm))
                    permuted = sorted(
                        r.rename(mapping).to_text() for r in roots.roots
                    )
                    assert permuted == bag, (n, desc, perm)


class TestIsSymmetric:
    def test_elementary_is_symmetric(self):
        assert is_symmetric(l1 * l2 + l1 * l3 + l2 * l3, 3)

    def test_single_variable_is_not(self):
        assert not is_symmetric(l1, 3)

    def test_pair_product_coefficients(self):
        p = total_chern_poly(build_roots(3, "Wedge2(E*)"))
        for component in p.homogeneous_components().values():
            for rest, group in _h_groups(component).items():
                assert is_symmetric(group, 3)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_each_generator_is_checked(self, n):
        ls = [var(f"l{i}") for i in range(1, n + 1)]
        # fixed by (l1 l2) and by every transposition of l1..l(n-1), not by
        # the n-cycle
        assert not is_symmetric(sum(ls[:-1], ZERO), n)
        assert not is_symmetric(ls[0] * ls[1] + ls[2], n)
        # fixed by the n-cycle, not by (l1 l2)
        cyclic = sum((ls[i] ** 2 * ls[(i + 1) % n] for i in range(n)), ZERO)
        assert not is_symmetric(cyclic, n)
        pairs = itertools.permutations(ls, 2)
        assert is_symmetric(sum((a**2 * b for a, b in pairs), ZERO), n)

    def test_rejects_non_l_variables(self):
        with pytest.raises(ValueError):
            is_symmetric(c1, 3)

    def test_rank_zero_admits_only_constants(self):
        # rank 0 has no l-variables, so an input that has one is not symmetric
        assert not is_symmetric(l1 * l2**2, 0)
        assert is_symmetric(ONE * 5, 0)
        with pytest.raises(NotSymmetric):
            symmetric_to_chern(l1, 0)
        assert symmetric_to_chern(H + 3, 0) == H + 3


def _h_groups(p):
    ls = [v for v in p.variables() if v.startswith("l")]
    groups = {}
    for m, c in p.terms.items():
        inside = make_mono(zip(ls, mono_exponents(m, ls)))
        rest = m - inside
        groups[rest] = groups.get(rest, ZERO) + Polynomial({inside: c})
    return groups


class TestSymmetricToChern:
    def test_first_chern_class(self):
        assert symmetric_to_chern(-(l1 + l2 + l3), 3) == c1

    def test_pair_product_constant_term(self):
        p = (l1 + l2) * (l1 + l3) * (l2 + l3)
        assert symmetric_to_chern(p, 3) == c3 - c1 * c2

    def test_doubled_roots_general_rank(self):
        for n in range(2, 7):
            p = ONE
            for i in range(1, n + 1):
                p = p * (H + 2 * var(f"l{i}"))
            image = symmetric_to_chern(p, n)
            expected = ZERO
            cs = [ONE] + [var(f"c{i}") for i in range(1, n + 1)]
            for i in range(n + 1):
                expected = expected + (-2) ** i * cs[i] * H ** (n - i)
            assert image == expected

    def test_not_symmetric_is_checked(self):
        with pytest.raises(NotSymmetric):
            symmetric_to_chern(l1 + 2 * l2, 2)

    def test_errors_name_the_leading_term(self, monkeypatch):
        with pytest.raises(NotSymmetric, match=r"leading term l1\^2\*l2\Z"):
            symmetric_to_chern(l1**2 * l2, 3)
        # a product that cancels nothing leaves the leading term in place; a
        # single monomial leads in every slot order
        monkeypatch.setattr(symfunc, "_e_product", lambda n, powers: ZERO)
        with pytest.raises(ArithmeticError, match=r"leading term l1\*l2 did not cancel"):
            symmetric_to_chern(l1 * l2, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_incomplete_orbit_is_not_symmetric(self, n):
        # a symmetric polynomial plus one monomial without the rest of its
        # S_n-orbit, alone and as the coefficient of a power of H
        sym = chern_to_roots(c1 * c2 + 3 * var(f"c{n}"), n)
        for extra in (l1**2 * var(f"l{n}"), var(f"l{n}") ** 3, l1 * l2**2):
            for shift in (ONE, H, H**2):
                assert symmetric_to_chern(sym * shift, n)
                with pytest.raises(NotSymmetric):
                    symmetric_to_chern((sym + extra) * shift, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_unequal_orbit_coefficients_are_not_symmetric(self, n):
        # a symmetric polynomial plus c*(x^a - x^s(a)) for a transposition s
        # that moves a: every orbit is complete, but two coefficients in the
        # orbit of a differ by 2c, alone and as the coefficient of H
        rng, ls = random.Random(70 + n), l_vars(n)
        cs = chern_classes(n)[1:]
        for _ in range(30):
            q = ZERO
            for _ in range(3):
                q = q + rng.randint(-9, 9) * rng.choice(cs) ** rng.randint(1, 2)
            sym = chern_to_roots(q, n)
            a = [rng.randint(0, 3) for _ in range(n)]
            i, j = rng.sample(range(n), 2)
            a[j] += a[i] == a[j]  # so the transposition (i j) moves a
            b = a[:]
            b[i], b[j] = a[j], a[i]
            c = rng.choice((-1, 1)) * rng.randint(1, 9)
            extra = Polynomial({make_mono(zip(ls, a)): c, make_mono(zip(ls, b)): -c})
            for shift in (ONE, H):
                assert symmetric_to_chern(sym * shift, n) == q * shift
                with pytest.raises(NotSymmetric):
                    symmetric_to_chern((sym + extra) * shift, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_asymmetric_part_under_a_lower_power_of_h(self, n):
        # sym's largest exponent (3) beats every exponent of the extras and
        # its H-power theirs, so in every slot order the rewrite reduces part
        # of sym * H^2 before it reaches the asymmetric coefficient of H
        q = c1**3 + 2 * c2 + var(f"c{n}")
        sym = chern_to_roots(q, n)
        assert symmetric_to_chern(sym * H**2, n) == q * H**2
        for extra in (l1, l1**2 * l2, var(f"l{n}") ** 2):
            p = sym * H**2 + extra * H
            assert max(p.terms) == max((sym * H**2).terms)
            with pytest.raises(NotSymmetric):
                symmetric_to_chern(p, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_products_with_chern_and_hyperplane_coefficients(self, n):
        # the non-l parts carry c's, so rewrites of different non-l parts
        # land on the same Chern monomial and must be added up
        cancelling = chern_to_roots(c1, n) * c1 - chern_to_roots(c1**2, n)
        assert symmetric_to_chern(cancelling, n) == ZERO
        rng = random.Random(40 + n)
        names = [f"c{i}" for i in range(1, n + 1)] + ["H", "K"]

        def draw():
            p = ZERO
            for _ in range(rng.randint(1, 4)):
                t = ONE * rng.randint(-9, 9)
                for _ in range(rng.randint(0, 3)):
                    t = t * var(rng.choice(names))
                p = p + t
            return p

        for _ in range(10):
            a, b = draw(), draw()
            assert symmetric_to_chern(chern_to_roots(a, n) * b, n) == a * b

    def test_mixed_variable_grouping(self):
        p = (H + l1 + l2) * (K + l1 * l2)
        image = symmetric_to_chern(p, 2)
        assert image == (H - c1) * (K + c2)

    def test_round_trip_random(self):
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randint(2, 5)
            q = ZERO
            for _ in range(rng.randint(0, 5)):
                t = var(f"c{rng.randint(1, n)}") * rng.randint(-9, 9)
                for _ in range(rng.randint(0, 2)):
                    t = t * var(f"c{rng.randint(1, n)}")
                q = q + t
            assert symmetric_to_chern(chern_to_roots(q, n), n) == q

    def test_ring_homomorphism_random(self):
        rng = random.Random(22)
        for _ in range(200):
            n = rng.randint(2, 4)
            a = chern_to_roots(var(f"c{rng.randint(1, n)}") * rng.randint(-5, 5), n)
            b = chern_to_roots(
                var(f"c{rng.randint(1, n)}") + var(f"c{rng.randint(1, n)}"), n
            )
            f = lambda p: symmetric_to_chern(p, n)
            assert f(a + b) == f(a) + f(b)
            assert f(a * b) == f(a) * f(b)

    def test_numeric_evaluation_oracle(self):
        rng = random.Random(23)
        p = (l1 + l2) * (l1 + l3) * (l2 + l3)
        image = symmetric_to_chern(p, 3)
        for _ in range(50):
            lvals = [rng.randint(-9, 9) for _ in range(3)]
            point = dict(zip(("l1", "l2", "l3"), lvals))
            assert image.evaluate(chern_values(lvals)) == p.evaluate(point)


class TestTotalChernPoly:
    def test_dual_standard_rank3(self):
        p = total_chern_poly(build_roots(3, "E*"))
        assert symmetric_to_chern(p, 3) == H**3 - c1 * H**2 + c2 * H - c3

    def test_rank2_quadratic(self):
        p = total_chern_poly(build_roots(2, "E*"))
        assert symmetric_to_chern(p, 2) == H**2 - var("c1") * H + var("c2")

    def test_sym2_factorization_rank3(self):
        image = symmetric_to_chern(total_chern_poly(build_roots(3, "Sym2(E*)")), 3)
        lhs = H**3 - 2 * c1 * H**2 + 4 * c2 * H - 8 * c3
        rhs = H**3 - 2 * c1 * H**2 + (c1**2 + c2) * H + (c3 - c1 * c2)
        assert image == lhs * rhs

    def test_sym2_splits_as_doubled_times_pairs(self):
        # the splitting of the quadric bundle relation used throughout
        for n in range(2, 7):
            sym2 = total_chern_poly(build_roots(n, "Sym2(E*)"))
            doubled = ONE
            for i in range(1, n + 1):
                doubled = doubled * (H + 2 * var(f"l{i}"))
            pairs = total_chern_poly(build_roots(n, "Wedge2(E*)"))
            assert sym2 == doubled * pairs


# A second Chern-ring route, used only here as an oracle: the power sums of
# E* follow from c by Newton's identities, those of Sym2(E*) and Wedge2(E*) by
# the plethysm (sum_a C(m,a) P_a P_(m-a) +- 2^m P_m)/2, and Newton's
# identities, with checked exact division, give back the elementary symmetric
# functions of the roots (Macdonald, *Symmetric Functions and Hall
# Polynomials*, I.2 and I.8).
def _power_sums(e, top):
    """p_0..p_top of the roots whose elementary symmetric functions are
    ``e`` (e[0] = 1, one more entry than roots), by Newton's identities."""
    p = [Polynomial.constant(len(e) - 1)]
    for m in range(1, top + 1):
        s = e[m] * ((-1) ** (m - 1) * m) if m < len(e) else ZERO
        for j in range(1, min(m, len(e))):
            s = s + e[j] * p[m - j] * (-1) ** (j - 1)
        p.append(s)
    return p


def _square_power_sums(P, sign):
    """p_0..p_d of Sym2 (sign 1) or Wedge2 (sign -1) of the roots x_i with
    power sums P = P_0..P_d: the sum over ordered pairs of (x_i + x_j)^m with
    the diagonal (2 x_i)^m added or taken away, halved exactly."""
    p = []
    for m in range(len(P)):
        s = P[m] * (sign * 2**m)
        for a in range(m // 2 + 1):  # the terms a and m - a are equal
            s = s + P[a] * P[m - a] * (comb(m, a) * (1 if 2 * a == m else 2))
        p.append(exact_divide(s, 2))
    return p


def _elementary(p):
    """e_0..e_d of d roots from their power sums p_0..p_d, by Newton's
    identities; each division by i is a checked exact division."""
    e = [ONE]
    for i in range(1, len(p)):
        s = ZERO
        for j in range(1, i + 1):
            s = s + e[i - j] * p[j] * (-1) ** (j - 1)
        e.append(exact_divide(s, i))
    return e


def chern_polynomial_by_newton(module):
    """c_H of an untwisted Sym2(E*) or Wedge2(E*) by Newton's plethysm."""
    sign = 1 if module.base == "Sym2(E*)" else -1
    dual = [ci * (-1) ** i for i, ci in enumerate(chern_classes(module.rank))]
    e = _elementary(_square_power_sums(_power_sums(dual, len(module.roots)), sign))
    d = len(e) - 1
    return sum((e[i] * H ** (d - i) for i in range(d + 1)), start=ZERO)


class TestChernPolynomial:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("base", ["E", "E*", "Sym2(E*)", "Wedge2(E*)"])
    @pytest.mark.parametrize("k", [0, -2, -1, 1, 2, 3])
    def test_agrees_with_the_root_rewrite(self, n, base, k):
        # the Chern-ring route against the expansion in l1..ln and its rewrite
        roots = build_roots(n, f"det^{k}*{base}")
        expected = symmetric_to_chern(total_chern_poly(roots), n)
        assert chern_polynomial(roots) == expected

    @pytest.mark.parametrize(
        "n, base",
        [(n, "Wedge2(E*)") for n in range(2, 9)]
        + [(n, "Sym2(E*)") for n in range(2, 8)],
    )
    def test_agrees_with_newtons_plethysm(self, n, base):
        # the staircase against the power-sum route, past the root rewrite's reach
        module = RepRoots(n, base)
        assert chern_polynomial(module) == chern_polynomial_by_newton(module)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_staircase_is_the_product_over_pairs(self, n):
        # det(e_(n-2i+j)) is prod_(i<j) (x_i + x_j) of the roots with
        # elementary symmetric functions e_k, here x = l1..ln themselves
        e = [elementary_symmetric(n, k) for k in range(n + 1)]
        ls = [var(v) for v in l_vars(n)]
        pairs = _prod([a + b for a, b in itertools.combinations(ls, 2)] or [ONE])
        assert symfunc._staircase(e) == pairs

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("scale", [-1, 1, 2])
    def test_elementary_of_shifted_roots(self, n, scale):
        # e_k(H + s*l_1, ..., H + s*l_n), expanded in l1..ln and rewritten
        shifted = [H + scale * var(v) for v in l_vars(n)]
        for k, e in enumerate(symfunc.elementary_of_shifted(n, scale)):
            expanded = sum(
                (_prod(combo) for combo in itertools.combinations(shifted, k)),
                start=ZERO,
            )
            assert e == symmetric_to_chern(expanded, n)

    @pytest.mark.parametrize("base", ["E", "E*", "Sym2(E*)", "Wedge2(E*)"])
    def test_root_check_rejects_one_wrong_term(self, base):
        module = RepRoots(4, base, 1)
        right = chern_polynomial(module)
        symfunc._check_at_roots(module, right)
        wrong = right + 2 * c2 * c1 ** (len(module.roots) - 2)
        with pytest.raises(ArithmeticError, match="disagrees with its roots"):
            symfunc._check_at_roots(module, wrong)


class TestETop:
    def test_rank3_untwisted(self):
        assert e_top(3, 0) == c3 - c1 * c2

    def test_rank2_single_root(self):
        assert e_top(2, 0) == -c1

    def test_agrees_with_twisted_product(self):
        # e_top substitutes H = k*c1 into c_H(Wedge2(E*)); the second route
        # rewrites the product of the twisted roots directly
        for n in (2, 3, 4):
            for k in (0, 1, 2, 3):
                roots = build_roots(n, f"det^{k}*Wedge2(E*)").roots
                direct = symmetric_to_chern(_prod(roots), n)
                assert e_top(n, k) == direct

    def test_numeric_oracle(self):
        rng = random.Random(24)
        for n in (2, 3, 4):
            e = e_top(n, 2)
            names = [f"l{i}" for i in range(1, n + 1)]
            for _ in range(30):
                lvals = [rng.randint(-7, 7) for _ in range(n)]
                point = dict(zip(names, lvals))
                det = -2 * sum(lvals)
                direct = _prod(
                    [
                        lvals[i] + lvals[j] + det
                        for i in range(n)
                        for j in range(i + 1, n)
                    ]
                    or [1]
                )
                assert e.evaluate(chern_values(lvals)) == direct

    def test_homogeneous_of_pair_count_degree(self):
        for n in (3, 4, 5):
            assert e_top(n, 1).is_homogeneous()
            assert e_top(n, 1).weighted_degree() == n * (n - 1) // 2

    def test_rank2_twist1_vanishes(self):
        # the twisted pair bundle is trivial there, so its top class is zero
        assert e_top(2, 1) == ZERO


# The entry points of the rank rule ``require_rank``, each with the argument
# it takes after the rank n: a twist k, a pushforward power r, or none
RANK_DOMAIN = {
    "e_top": (e_top, "k"),
    "reduced_quadrics": (pipeline.reduced_quadrics, "k"),
    "orthogonal": (pipeline.orthogonal, "k"),
    "alpha_family": (pipeline.alpha_family, None),
    "chern_series_divide": (pipeline.chern_series_divide, None),
    "veronese_pushforward": (localization.veronese_pushforward, "r"),
    "closed_form_pushforward": (localization.closed_form_pushforward, "r"),
}
# n = 1, k = -1, r = -1 and r = n are rejected; n = 2, k = 0, r = 0 and
# r = n - 1 accepted
REJECTED = {None: [(1,)], "k": [(1, 0), (3, -1)], "r": [(1, 0), (3, -1), (3, 3)]}
ACCEPTED = {None: [(2,)], "k": [(2, 0)], "r": [(2, 0), (2, 1)]}


@pytest.mark.parametrize("name", RANK_DOMAIN)
def test_rank_domain(name):
    fn, takes = RANK_DOMAIN[name]
    for args in REJECTED[takes]:
        with pytest.raises(ValueError, match=r"\Aneed n >= 2, k >= 0 and 0 <= r < n"):
            fn(*args)
    for args in ACCEPTED[takes]:
        fn(*args)


def test_elementary_symmetric_counts():
    for n in range(2, 7):
        for i in range(n + 1):
            e = elementary_symmetric(n, i)
            count = len(e.terms)
            from math import comb

            assert count == comb(n, i)


# Packs the names in argv first, so they take slots 0, 1, ... in that order,
# then prints the rewrites, quotients and checks that must not depend on it.
HISTORY_RUN = """
import json, random, sys
from eqchow.poly import NotDivisible, ZERO, divides, exact_divide, lex_priority, make_mono, var
for name in sys.argv[1:]:
    make_mono([(name, 1)])
from eqchow.symfunc import NotSymmetric, chern_to_roots, l_vars, symmetric_to_chern

def raises(error, f, *args):
    try:
        f(*args)
    except error:
        return True
    return False

ls = [var(v) for v in l_vars(6)]
H, K = var("H"), var("K")
rng = random.Random(31)
out = {"priority": lex_priority(l_vars(6)), "values": [], "checks": []}
for n in range(2, 6):
    for _ in range(5):
        q = ZERO
        for _ in range(rng.randint(1, 4)):
            t = var(f"c{rng.randint(1, n)}") * rng.randint(-9, 9) * H ** rng.randint(0, 2)
            for _ in range(rng.randint(0, 2)):
                t = t * var(f"c{rng.randint(1, n)}")
            q = q + t
        p = chern_to_roots(q, n)
        image = symmetric_to_chern(p, n)
        out["values"].append(image.to_json_obj())
        out["checks"].append(image == q)
        for extra in (ls[0] ** 3, ls[0] ** 2 * ls[n - 1], ls[n - 1] * H):
            out["checks"].append(raises(NotSymmetric, symmetric_to_chern, p + extra, n))
        if n == 2:  # l1*l2 is e_2 = c2 at n = 2
            out["checks"].append(symmetric_to_chern(p + ls[0] * ls[1], n) == q + var("c2"))
        else:
            out["checks"].append(raises(NotSymmetric, symmetric_to_chern, p + ls[0] * ls[1], n))
f = (H + 2 * ls[0] - ls[5]) * (K + ls[0] * ls[2]) + var("c2") * ls[3]
for g in ((ls[0] - ls[2]) ** 2 + H * ls[1] + ls[4] ** 2, ls[5] - 2 * ls[0], 3 * ls[1] * ls[3], H + K + 1):
    product = f * g
    quotient = exact_divide(product, g)
    out["values"].append(quotient.to_json_obj())
    out["checks"] += [
        quotient == f,
        divides(g, product),
        not divides(g, product + ls[1]),
        not divides(2 * g, product),
        raises(NotDivisible, exact_divide, product + ls[1], g),
    ]
print(json.dumps(out))
"""


def _run_fresh(script, *args):
    """The standard output of ``script`` run with ``args`` in a fresh
    interpreter, which must exit cleanly."""
    src = os.path.dirname(os.path.dirname(eqchow.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_with_history(names):
    return json.loads(_run_fresh(HISTORY_RUN, *names))


def test_results_do_not_depend_on_the_slot_history():
    # division and the rewrite order monomials by the packed int, whose
    # variable priority follows the order names were first seen
    names = l_vars(6)
    default = _run_with_history(names)
    reverse = _run_with_history(names[::-1])
    assert default["priority"] == list(names[::-1])
    assert reverse["priority"] == list(names)
    assert len(default["checks"]) == 4 * 5 * 5 + 4 * 5
    assert all(default["checks"]) and all(reverse["checks"])
    assert reverse["values"] == default["values"]


# Packs the names after the test file's path first, then loads this file and
# runs the error-message test in that interpreter.
LEADING_TERM_RUN = """
import importlib.util, sys
import pytest
from eqchow.poly import var
for name in sys.argv[2:]:
    var(name)
spec = importlib.util.spec_from_file_location("fresh_test_symfunc", sys.argv[1])
tests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tests)
with pytest.MonkeyPatch.context() as mp:
    tests.TestSymmetricToChern().test_errors_name_the_leading_term(mp)
"""


@pytest.mark.parametrize("names", [("l1", "l2"), ("l2", "l1")], ids=["l1-first", "l2-first"])
def test_leading_term_messages_do_not_depend_on_the_slot_order(names):
    _run_fresh(LEADING_TERM_RUN, __file__, *names)
