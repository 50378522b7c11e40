"""The ``small-ops`` workload: library calls on small seeded random inputs.

    python3 bench/small_ops.py --seed N --seconds S [--trace]

One process builds its inputs from the seed, runs every batch once as an
untimed warm-up (filling ``monomials_of_degree`` and the symmetric-function
caches), checks the warm-up results by a second route, then repeats rounds of
all batches for S seconds of timed work.  Every timed result must equal the
checked warm-up result.  Each batch is one timed call over many small inputs,
so its cost averages over the seed's random draws.

With ``--trace`` it runs one untraced round, then installs the tracer and runs
one traced round.  It prints one JSON object to stdout.
"""

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import eqchow.cli  # noqa: E402,F401  (same set-up as a CLI launch)

READY = time.monotonic()

import json  # noqa: E402
import random  # noqa: E402
from fractions import Fraction  # noqa: E402

from eqchow import ideal, poly, symfunc  # noqa: E402

# Variable pools, each listed in eqchow's fixed variable order so that a
# tuple of (name, exp) pairs built in pool order is a canonical monomial.
RING_VARS = ("c1", "c2", "c3", "H", "l1", "l2")
CHERN4 = ("c1", "c2", "c3", "c4")


# Input shapes (term counts, degrees, ranks, dimensions) cycle with the case
# index; the seed draws only monomials and coefficients.  The cost of a batch
# then barely depends on the seed, so runs on different seeds are comparable.


def nonzero(rng, bound):
    return rng.choice([-1, 1]) * rng.randint(1, bound)


def random_poly(rng, variables, terms, max_exp, max_coeff=9):
    """Exactly ``terms`` distinct monomials with nonzero coefficients."""
    monos = set()
    while len(monos) < terms:
        monos.add(tuple((v, e) for v in variables for e in [rng.randint(0, max_exp)] if e))
    return poly.Polynomial({m: nonzero(rng, max_coeff) for m in sorted(monos)})


def random_homogeneous(rng, variables, degree, max_coeff=6):
    """About two thirds of the degree's monomials, nonzero coefficients."""
    mons = ideal.monomials_of_degree(variables, degree)
    chosen = rng.sample(mons, max(1, (2 * len(mons) + 2) // 3))
    return poly.Polynomial({m: nonzero(rng, max_coeff) for m in chosen})


def random_point(rng, variables):
    return {v: rng.randint(-7, 7) for v in variables}


def random_ideal_gens(rng, degrees):
    return [random_homogeneous(rng, CHERN4, d) for d in degrees]


# Generator degrees of the random ideals in c1..c4, cycled by case index.
IDEAL_SHAPES = ((1, 3), (2, 3), (2, 4), (2, 3, 4), (3, 4), (1, 4, 4))


def member_of(rng, gens, degree):
    """A random nonzero element of the ideal in the given degree, built as a
    sum of monomial multiples of the generators."""
    total = poly.ZERO
    while not total:
        for g in gens:
            e = g.weighted_degree()
            if e <= degree:
                for m in ideal.monomials_of_degree(CHERN4, degree - e):
                    if rng.random() < 0.5:
                        total = total + g.mono_shift(m, nonzero(rng, 3))
    return total


# -- ring products --------------------------------------------------------------


def make_products(rng):
    return [
        (random_poly(rng, RING_VARS, 10, 3), random_poly(rng, RING_VARS, 4 + i % 12, 3))
        for i in range(200)
    ]


def run_products(inputs):
    return [p * q for p, q in inputs]


def check_products(inputs, results, rng):
    for (p, q), pq in zip(inputs, results):
        x = random_point(rng, RING_VARS)
        if pq.evaluate(x) != p.evaluate(x) * q.evaluate(x):
            return False
    return True


# -- exact division ---------------------------------------------------------------


def make_exact_divide(rng):
    pairs = []
    for i in range(200):
        p = random_poly(rng, RING_VARS[:4], 2 + i % 10, 3)
        q = random_poly(rng, RING_VARS[:4], 1 + i % 5, 2)
        pairs.append((p * q, q, p))
    return pairs


def run_exact_divide(inputs):
    return [poly.exact_divide(pq, q) for pq, q, _ in inputs]


def check_exact_divide(inputs, results, rng):
    return all(r == p for (_, _, p), r in zip(inputs, results))


# -- symmetric rewrite --------------------------------------------------------------


def make_symmetric_to_chern(rng):
    cases = []
    for i in range(60):
        n = 2 + i % 4
        cs = tuple(f"c{j}" for j in range(1, n + 1))
        top = rng.sample(ideal.monomials_of_degree(cs, 4), 2)
        q = poly.Polynomial({m: nonzero(rng, 9) for m in top})
        q = q + random_homogeneous(rng, cs, 1 + i % 3)
        cases.append((symfunc.chern_to_roots(q, n), n, q))
    return cases


def run_symmetric_to_chern(inputs):
    return [symfunc.symmetric_to_chern(image, n) for image, n, _ in inputs]


def check_symmetric_to_chern(inputs, results, rng):
    # Round trip: chern_to_roots expanded q, the rewrite must give q back.
    return all(r == q for (_, _, q), r in zip(inputs, results))


# -- localization-style fraction sums ---------------------------------------------------


L3 = ("l1", "l2", "l3")


def make_sum_fractions(rng):
    ls = [poly.var(v) for v in L3]
    forms = [ls[0] - ls[1], ls[1] - ls[2], ls[0] - ls[2], ls[0] + ls[1], ls[1] + ls[2]]
    cases = []
    for i in range(120):
        total = i % 3
        fractions = []
        for j in range(2 + i % 3):
            dens = [rng.choice(forms) for _ in range((i + j) % 3)]
            num = random_homogeneous_l(rng, total + len(dens))
            fractions.append(poly.StructuredFraction.make(num, dens))
        cases.append(fractions)
    return cases


def random_homogeneous_l(rng, degree):
    terms = {m: nonzero(rng, 4) for m in ideal.monomials_of_degree(L3, degree)}
    return poly.Polynomial(terms)


def run_sum_fractions(inputs):
    return [poly.sum_fractions(fractions) for fractions in inputs]


def _value(fraction, x):
    den = 1
    for f, m in fraction.denominator:
        den *= f.evaluate(x) ** m
    return Fraction(fraction.numerator.evaluate(x), den)


def check_sum_fractions(inputs, results, rng):
    for fractions, total in zip(inputs, results):
        shuffled = fractions[:]
        rng.shuffle(shuffled)
        if poly.sum_fractions(shuffled) != total:
            return False
        # Evaluate at a point where no linear form vanishes (distinct,
        # positive coordinates), as exact rationals.
        a, b, c = rng.sample(range(1, 50), 3)
        x = dict(zip(L3, (a, b, c)))
        if sum((_value(f, x) for f in fractions), Fraction(0)) != _value(total, x):
            return False
    return True


# -- integer lattices -------------------------------------------------------------------


def make_lattice(rng):
    cases = []
    for i in range(200):
        dim = 6 + i % 5
        vecs = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(4 + i % 7)]
        queries = [list(v) for v in vecs]
        for v in vecs:
            probe = list(v)
            probe[rng.randrange(dim)] += rng.choice([-1, 1])
            queries.append(probe)
        cases.append((dim, vecs, queries))
    return cases


def lattice_answers(dim, vecs, queries):
    lat = ideal.IntegerLattice(dim)
    for v in vecs:
        lat.insert(v)
    return lat.hnf(), tuple(lat.contains(q) for q in queries)


def run_lattice(inputs):
    return [lattice_answers(dim, vecs, queries) for dim, vecs, queries in inputs]


def check_lattice(inputs, results, rng):
    for (dim, vecs, queries), result in zip(inputs, results):
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        # HNF is independent of insertion order; every inserted vector is a member.
        if lattice_answers(dim, shuffled, queries) != result:
            return False
        if not all(result[1][: len(vecs)]):
            return False
    return True


# -- graded ideals -----------------------------------------------------------------------


def make_ideal_contains(rng):
    cases = []
    for i in range(80):
        gens = random_ideal_gens(rng, IDEAL_SHAPES[i % len(IDEAL_SHAPES)])
        queries = []
        for d in (5, 6, 7):
            queries += [member_of(rng, gens, d), random_homogeneous(rng, CHERN4, d)]
        cases.append((gens, queries))
    return cases


def contains_answers(gens, queries):
    I = ideal.GradedIdeal(CHERN4, gens)
    return tuple(I.contains(q) for q in queries)


def run_ideal_contains(inputs):
    return [contains_answers(gens, queries) for gens, queries in inputs]


def check_ideal_contains(inputs, results, rng):
    for (gens, queries), answers in zip(inputs, results):
        # Members are built as combinations (every even-indexed query); the
        # other answers must not depend on generator order.
        if not all(answers[0::2]):
            return False
        if contains_answers(gens[::-1], queries) != answers:
            return False
    return True


def make_simplified_generators(rng):
    cases = []
    for i in range(60):
        gens = random_ideal_gens(rng, IDEAL_SHAPES[i % len(IDEAL_SHAPES)])
        bound = max(g.weighted_degree() for g in gens) + 2
        cases.append((gens, bound))
    return cases


def run_simplified_generators(inputs):
    return [
        ideal.GradedIdeal(CHERN4, gens).simplified_generators(bound)
        for gens, bound in inputs
    ]


def check_simplified_generators(inputs, results, rng):
    return all(
        ideal.compare_up_to(
            ideal.GradedIdeal(CHERN4, simplified), ideal.GradedIdeal(CHERN4, gens), bound
        ).equal
        for (gens, bound), simplified in zip(inputs, results)
    )


COMPARE_BOUND = 7


def make_compare_up_to(rng):
    cases = []
    for i in range(40):
        gens = random_ideal_gens(rng, IDEAL_SHAPES[i % len(IDEAL_SHAPES)])
        if i % 2:
            other = random_ideal_gens(rng, IDEAL_SHAPES[(i + 1) % len(IDEAL_SHAPES)])
        else:
            # Same ideal, different generating set: add members, shuffle.
            other = gens + [member_of(rng, gens, d) for d in (4, 5)]
            rng.shuffle(other)
        cases.append((gens, other, i % 2 == 0))
    return cases


def run_compare_up_to(inputs):
    return [
        ideal.compare_up_to(
            ideal.GradedIdeal(CHERN4, a), ideal.GradedIdeal(CHERN4, b), COMPARE_BOUND
        )
        for a, b, _ in inputs
    ]


def _generated_within(gens, other):
    I = ideal.GradedIdeal(CHERN4, other)
    return all(I.contains(g) for g in gens if g.weighted_degree() <= COMPARE_BOUND)


def check_compare_up_to(inputs, results, rng):
    for (a, b, same), cmp in zip(inputs, results):
        # Graded pieces agree up to D iff each side's generators of degree
        # <= D lie in the other ideal.
        mutual = _generated_within(a, b) and _generated_within(b, a)
        if cmp.equal != mutual or (same and not cmp.equal):
            return False
        if cmp.equal != (cmp.first_mismatch is None):
            return False
    return True


BATCHES = {
    "products": (make_products, run_products, check_products),
    "exact_divide": (make_exact_divide, run_exact_divide, check_exact_divide),
    "symmetric_to_chern": (make_symmetric_to_chern, run_symmetric_to_chern, check_symmetric_to_chern),
    "sum_fractions": (make_sum_fractions, run_sum_fractions, check_sum_fractions),
    "lattice": (make_lattice, run_lattice, check_lattice),
    "ideal_contains": (make_ideal_contains, run_ideal_contains, check_ideal_contains),
    "simplified_generators": (make_simplified_generators, run_simplified_generators, check_simplified_generators),
    "compare_up_to": (make_compare_up_to, run_compare_up_to, check_compare_up_to),
}


class Runner:
    """Runs rounds of batches and counts attempted and failed batch calls."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.inputs = {name: make(rng) for name, (make, _, _) in BATCHES.items()}
        self.check_rng = random.Random(seed + 1)
        self.expected = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _call(self, name):
        """Time one batch call; returns (seconds, results) or None on error."""
        self.attempted += 1
        run = BATCHES[name][1]
        try:
            t0 = time.perf_counter()
            results = run(self.inputs[name])
            return time.perf_counter() - t0, results
        except Exception as exc:  # a crashing kernel is a counted failure
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def warm_up(self):
        """Untimed first call of every batch, checked by a second route."""
        for name, (_, _, check) in BATCHES.items():
            out = self._call(name)
            if out is None:
                continue
            try:
                ok = check(self.inputs[name], out[1], self.check_rng)
            except Exception as exc:  # a crashing check is a counted failure
                ok = False
                self.errors.append(f"{name}: check raised {type(exc).__name__}: {exc}")
            if ok:
                self.expected[name] = out[1]
            else:
                self.failed += 1
                self.errors.append(f"{name}: second-route check failed")

    def round(self):
        """One timed call of every batch; returns {batch: seconds}."""
        times = {}
        for name in BATCHES:
            out = self._call(name)
            if out is None:
                continue
            times[name] = out[0]
            if name not in self.expected or out[1] != self.expected[name]:
                self.failed += 1
                self.errors.append(f"{name}: result differs from the checked warm-up")
        return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    runner = Runner(args.seed)
    runner.warm_up()
    rounds = []
    spans = None
    if args.trace:
        rounds.append(runner.round())
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        rounds.append(runner.round())
        spans = tracer.stats
    else:
        stop = time.monotonic() + args.seconds
        while time.monotonic() < stop or not rounds:
            rounds.append(runner.round())
    json.dump(
        {
            "ready": READY,
            "rounds": rounds,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "errors": runner.errors,
            "spans": spans,
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
