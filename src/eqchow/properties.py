"""Randomized and exhaustive property suites.

Each function runs one property family at its documented size bounds, raising
PropertyViolation on the first violation and returning the number of cases
checked.  The checks are explicit raises, so they also run under ``python -O``.
Each suite takes no arguments: its seed and case count are fixed in its body,
so runs are reproducible, and ``verify-all`` runs every suite exactly so.
"""

from __future__ import annotations

import itertools
import random

from .ideal import (
    GradedIdeal,
    IntegerLattice,
    compare_pieces,
    compare_up_to,
    monomials_of_degree,
)
from .localization import (
    closed_form_pushforward,
    fundamental_class,
    tangent_weights,
    veronese_pushforward,
)
from .poly import (
    ONE,
    Polynomial,
    StructuredFraction,
    ZERO,
    exact_divide,
    sum_fractions,
    var,
)
from .pipeline import quadric_family
from .symfunc import (
    BASES,
    HYPERPLANE,
    RepRoots,
    c_vars,
    chern_polynomial,
    chern_to_roots,
    l_vars,
    symmetric_to_chern,
    torsor_substitute,
)


class PropertyViolation(AssertionError):
    """A property suite found a counterexample."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise PropertyViolation(what)


def _random_poly(
    rng: random.Random,
    variables: list[str],
    max_terms: int = 6,
    max_exp: int = 3,
    max_coeff: int = 9,
) -> Polynomial:
    p = ZERO
    for _ in range(rng.randint(0, max_terms)):
        t = Polynomial.constant(rng.randint(-max_coeff, max_coeff))
        for v in variables:
            e = rng.randint(0, max_exp)
            if e:
                t = t * var(v) ** e
        p = p + t
    return p


def ring_axioms() -> int:
    """Associativity, commutativity, distributivity on random polynomials in
    up to 6 variables of degree up to 8, all exact."""
    rng, cases = random.Random(1), 200
    pool = ["c1", "c2", "c3", "H", "l1", "l2"]
    for _ in range(cases):
        nv = rng.randint(1, 6)
        vs = pool[:nv]
        p = _random_poly(rng, vs)
        q = _random_poly(rng, vs)
        r = _random_poly(rng, vs)
        _check((p + q) + r == p + (q + r), "addition is not associative")
        _check(p + q == q + p, "addition is not commutative")
        _check((p * q) * r == p * (q * r), "multiplication is not associative")
        _check(p * q == q * p, "multiplication is not commutative")
        _check(p * (q + r) == p * q + p * r, "product does not distribute")
        _check(p + ZERO == p and p * ONE == p and p * ZERO == ZERO, "unit laws fail")
        _check(p - p == ZERO, "p - p is not zero")
    return cases


def exact_divide_roundtrip() -> int:
    """exact_divide(p*q, q) == p for random p and nonzero q."""
    rng, cases = random.Random(2), 200
    pool = ["c1", "c2", "H", "l1", "l2", "l3"]
    done = 0
    while done < cases:
        nv = rng.randint(1, 4)
        vs = pool[:nv]
        p = _random_poly(rng, vs, max_terms=5)
        q = _random_poly(rng, vs, max_terms=4)
        if not q:
            continue
        _check(exact_divide(p * q, q) == p, "exact_divide(p*q, q) != p")
        done += 1
    return done


def sum_fractions_permutation_invariance() -> int:
    """The fraction sum does not depend on the order of its inputs, nor on
    multiplying one input's numerator and denominator by the same form, and
    its numerator is homogeneous whenever all inputs are."""
    rng, cases = random.Random(3), 200
    ls = [var(v) for v in l_vars(3)]
    forms = [ls[0] - ls[1], ls[1] - ls[2], ls[0] - ls[2], ls[0] + ls[1], ls[1] + ls[2]]
    nonzero = 0
    for _ in range(cases):
        total = rng.randint(0, 2)
        parts = []
        for _ in range(rng.randint(2, 4)):
            dens = [rng.choice(forms) for _ in range(rng.randint(0, 2))]
            num = ZERO
            for m in monomials_of_degree(l_vars(3), total + len(dens)):
                num = num + Polynomial({m: rng.randint(-4, 4)})
            parts.append((num, dens))
        fractions = [StructuredFraction.make(num, dens) for num, dens in parts]
        base = sum_fractions(fractions)
        shuffled = fractions[:]
        rng.shuffle(shuffled)
        again = sum_fractions(shuffled)
        _check(base == again, "fraction sum depends on the order")
        i, g = rng.randrange(len(parts)), rng.choice(forms)
        num, dens = parts[i]
        padded = fractions[:]
        padded[i] = StructuredFraction.make(num * g, dens + [g])
        _check(sum_fractions(padded) == base, "fraction sum keeps a common factor")
        if base.numerator:
            nonzero += 1
            _check(base.numerator.is_homogeneous(), "numerator is not homogeneous")
            den_degree = sum(m for _, m in base.denominator)
            forced = base.numerator.weighted_degree() - den_degree
            _check(forced == total, "fraction sum has the wrong degree")
    _check(nonzero, "every fraction sum is zero")
    return cases


def symmetric_roundtrip() -> int:
    """Expanding c_i as signed elementary symmetric polynomials and rewriting
    back is the identity, for random Chern polynomials with n <= 5, not all
    of them constant."""
    rng, cases = random.Random(4), 200
    nonconstant = 0
    for _ in range(cases):
        n = rng.randint(2, 5)
        q = _random_poly(rng, c_vars(n), max_terms=5, max_exp=2)
        _check(
            symmetric_to_chern(chern_to_roots(q, n), n) == q, "rewrite round trip fails"
        )
        nonconstant += q.weighted_degree() > 0
    _check(nonconstant, "every input is constant")
    return cases


def symmetric_homomorphism() -> int:
    """The rewriting map respects sums and products of symmetric inputs, in
    some case with both factors non-constant."""
    rng, cases = random.Random(5), 200
    nonconstant = 0
    for _ in range(cases):
        n = rng.randint(2, 4)
        a = chern_to_roots(_random_poly(rng, c_vars(n), max_terms=3, max_exp=2), n)
        b = chern_to_roots(_random_poly(rng, c_vars(n), max_terms=3, max_exp=2), n)
        f = lambda p: symmetric_to_chern(p, n)
        _check(f(a + b) == f(a) + f(b), "rewrite is not additive")
        _check(f(a * b) == f(a) * f(b), "rewrite is not multiplicative")
        nonconstant += min(a.weighted_degree(), b.weighted_degree()) > 0
    _check(nonconstant, "no case multiplies two non-constant inputs")
    return cases


def restriction_consistency() -> int:
    """Substituting the hyperplane restriction -m_j into the fundamental class
    of fixed point j gives the product of its tangent weights."""
    rng, cases = random.Random(6), 200
    for _ in range(cases):
        n = rng.randint(2, 5)
        base = rng.choice(BASES)
        k = rng.randint(0, 3)
        if base == "Sym2(E*)" and n == 5:
            # twisted rank-5 quadric classes dominate the runtime
            k = 0
        roots = RepRoots(n, base, k).roots
        j = rng.randrange(len(roots))
        lhs = fundamental_class(roots, j).substitute(HYPERPLANE, -roots[j])
        rhs = ONE
        for w in tangent_weights(roots, j):
            rhs = rhs * w
        _check(rhs, "product of tangent weights is zero")
        _check(lhs == rhs, "restriction is not the product of tangent weights")
    return cases


def hnf_properties() -> int:
    """HNF is idempotent and independent of insertion order; membership of
    every generator holds."""
    rng, cases = random.Random(7), 200
    for _ in range(cases):
        dim = rng.randint(1, 6)
        vecs = [
            [rng.randint(-9, 9) for _ in range(dim)]
            for _ in range(rng.randint(1, 6))
        ]
        lat = IntegerLattice(dim)
        for v in vecs:
            lat.insert(list(v))
        h = lat.hnf()
        relat = IntegerLattice(dim)
        for row in h:
            relat.insert(list(row))
        _check(relat.hnf() == h, "HNF is not idempotent")
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        lat2 = IntegerLattice(dim)
        for v in shuffled:
            lat2.insert(list(v))
        _check(lat2.hnf() == h, "HNF depends on insertion order")
        for v in vecs:
            _check(lat.contains(list(v)), "lattice misses an inserted vector")
    return cases


def contains_vs_bruteforce() -> int:
    """Whenever a brute-force search over small integer combinations finds a
    membership certificate, the lattice method agrees (one-sided: the lattice
    method is the decision procedure)."""
    rng, cases = random.Random(8), 200
    box = 3
    for _ in range(cases):
        dim = rng.randint(1, 4)
        gens = [
            [rng.randint(-3, 3) for _ in range(dim)]
            for _ in range(rng.randint(1, 3))
        ]
        lat = IntegerLattice(dim)
        for g in gens:
            lat.insert(list(g))
        coeffs = [rng.randint(-box, box) for _ in gens]
        target = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim)]
        _check(lat.contains(target), "lattice misses a combination of generators")
        probe = list(target)
        probe[rng.randrange(dim)] += rng.choice([-1, 1])
        found = any(
            all(
                sum(c * g[i] for c, g in zip(combo, gens)) == probe[i]
                for i in range(dim)
            )
            for combo in itertools.product(range(-box, box + 1), repeat=len(gens))
        )
        if found:
            _check(lat.contains(probe), "lattice misses a brute-force member")
    return cases


def simplify_preserves_ideal() -> int:
    """simplified_generators produces the same graded pieces up to the bound,
    for random homogeneous ideals with n <= 4 and generator degree <= 6, by
    both routes: generator containment (``compare_up_to``) and the per-degree
    HNF walk (``compare_pieces``).  Each ideal is also compared with itself
    with its first generator doubled; both routes must agree on that pair,
    and some such pair must differ, so neither route passes vacuously."""
    rng, cases = random.Random(9), 60
    done = unequal = 0
    while done < cases:
        n = rng.randint(2, 4)
        vs = c_vars(n)
        gens = []
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(1, 6)
            p = ZERO
            for m in monomials_of_degree(vs, d):
                if rng.random() < 0.5:
                    p = p + Polynomial({m: rng.randint(-6, 6)})
            if p:
                gens.append(p)
        if not gens:
            continue
        ideal = GradedIdeal(vs, gens)
        bound = min(8, 2 * ideal.max_generator_degree())
        small = GradedIdeal(vs, ideal.simplified_generators(bound))
        _check(
            compare_up_to(ideal, small, bound).equal,
            "simplification changes the ideal",
        )
        _check(
            compare_pieces(ideal, small, bound).equal,
            "simplification changes a graded piece",
        )
        doubled = GradedIdeal(vs, [2 * gens[0]] + gens[1:])
        verdict = compare_up_to(ideal, doubled, bound).equal
        _check(
            verdict == compare_pieces(ideal, doubled, bound).equal,
            "containment and the per-degree walk disagree",
        )
        unequal += not verdict
        done += 1
    _check(unequal, "every ideal equals its perturbation")
    return done


def pr_ideal_membership() -> int:
    """The full hyperplane-class relation lies in the ideal generated by the
    pushforward classes, before and after the torsor substitution; random
    monomial multiples stay inside (n <= 5, k <= 3)."""
    rng, cases = random.Random(10), 200
    relations = {
        n: chern_polynomial(RepRoots(n, "Sym2(E*)")) for n in range(2, 6)
    }
    checked = 0
    for n, pr in relations.items():
        hvars = c_vars(n) + (HYPERPLANE,)
        _check(pr, "bundle relation is zero")
        pushed = GradedIdeal(hvars, [closed_form_pushforward(n, r) for r in range(n)])
        _check(pushed.contains(pr), "bundle relation is outside the pushforward ideal")
        checked += 1
        for k in range(4):
            family = GradedIdeal(hvars[:-1], quadric_family(n, k))
            image = torsor_substitute(pr, k)
            _check(family.contains(image), "bundle relation is outside the family")
            checked += 1
    while checked < cases:
        n = rng.randint(2, 4)
        k = rng.randint(0, 3)
        cvars = c_vars(n)
        family = GradedIdeal(cvars, quadric_family(n, k))
        pr = torsor_substitute(relations[n], k)
        d = rng.randint(0, 3)
        mons = monomials_of_degree(cvars, d)
        multiplier = Polynomial({rng.choice(mons): rng.randint(1, 5)})
        _check(
            family.contains(pr * multiplier),
            "multiple of the bundle relation is outside the family ideal",
        )
        checked += 1
    return checked


def oracle_equivalence() -> int:
    """Localization sum equals the interpolation shortcut for all
    2 <= n <= 6 and 0 <= r <= n-1."""
    checked = 0
    for n in range(2, 7):
        for r in range(n):
            push = veronese_pushforward(n, r)
            _check(push, "pushforward is zero")
            _check(
                push == closed_form_pushforward(n, r),
                "localization and interpolation disagree",
            )
            checked += 1
    return checked


# Each suite verify-all runs, by name, with the fewest cases its claim
# accepts: simplify-preserves-ideal is bounded by construction cost, the other
# suites run the full randomized volume.
ALL_SUITES = {
    "ring-axioms": (ring_axioms, 200),
    "exact-divide-roundtrip": (exact_divide_roundtrip, 200),
    "fraction-sum-permutation-invariance": (sum_fractions_permutation_invariance, 200),
    "symmetric-rewrite-roundtrip": (symmetric_roundtrip, 200),
    "symmetric-rewrite-homomorphism": (symmetric_homomorphism, 200),
    "fixed-point-restriction-consistency": (restriction_consistency, 200),
    "hnf-idempotence-order-invariance": (hnf_properties, 200),
    "contains-vs-bruteforce": (contains_vs_bruteforce, 200),
    "simplify-preserves-ideal": (simplify_preserves_ideal, 50),
    "bundle-relation-membership": (pr_ideal_membership, 200),
}
