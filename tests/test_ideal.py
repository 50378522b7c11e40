"""Graded pieces, lattice membership, ideal comparison, and generator
simplification."""

import hashlib
import itertools
import json
import random
import sys
import threading
from bisect import bisect_left

import pytest

from eqchow.cli import run
from eqchow.ideal import (
    DegreeBoundTooLow,
    GradedIdeal,
    IntegerLattice,
    NotHomogeneous,
    RoutesDisagree,
    _xgcd,
    compare_pieces,
    compare_up_to,
    equal_up_to,
    monomials_of_degree,
)
from eqchow.poly import Polynomial, ZERO, make_mono, mono_str, var, var_key

c1, c2, c3, c4, H = var("c1"), var("c2"), var("c3"), var("c4"), var("H")
CV3 = ("c1", "c2", "c3")

THEOREM_IDEAL = [4 * c3, 2 * c1 * c3, c1**2 * c3]


class TestMonomialEnumeration:
    def test_degree3_rank3(self):
        mons = monomials_of_degree(CV3, 3)
        assert [mono_str(m) for m in mons] == ["c1^3", "c1*c2", "c3"]

    def test_weighted_counts_match_partition_numbers(self):
        # monomials of weighted degree d in c1..cn = partitions of d into
        # parts of size at most n
        def partitions(d, cap):
            if d == 0:
                return 1
            if cap == 0:
                return 0
            return sum(partitions(d - cap * i, cap - 1) for i in range(d // cap + 1))

        for n in (2, 3, 4):
            vs = tuple(f"c{i}" for i in range(1, n + 1))
            for d in range(10):
                assert len(monomials_of_degree(vs, d)) == partitions(d, n)

    def test_degree_zero_and_negative(self):
        assert monomials_of_degree(CV3, 0) == (make_mono([]),)
        assert monomials_of_degree(CV3, -1) == ()


class TestGradedPiece:
    def test_degree3_is_four_times_c3(self):
        ideal = GradedIdeal(CV3, THEOREM_IDEAL)
        piece = ideal.graded_piece(3)
        assert [mono_str(m) for m in piece.basis] == ["c1^3", "c1*c2", "c3"]
        assert piece.hnf == ((0, 0, 4),)

    def test_zero_ideal(self):
        ideal = GradedIdeal(CV3, [])
        for d in range(6):
            assert ideal.graded_piece(d).hnf == ()

    def test_degree5_hermite_structure(self):
        # unit pivot on c1^2*c3 (absorbing 2*c1*c1c3), pivot 4 on c2*c3
        ideal = GradedIdeal(CV3, THEOREM_IDEAL)
        piece = ideal.graded_piece(5)
        basis = [mono_str(m) for m in piece.basis]
        assert basis == ["c1^5", "c1^3*c2", "c1^2*c3", "c1*c2^2", "c2*c3"]
        assert piece.hnf == ((0, 0, 1, 0, 0), (0, 0, 0, 0, 4))

    def test_degree5_against_bruteforce_span(self):
        # every HNF row must be an integer combination of the raw products,
        # and conversely every raw product reduces into the lattice
        ideal = GradedIdeal(CV3, THEOREM_IDEAL)
        piece = ideal.graded_piece(5)
        products = []
        index = {m: i for i, m in enumerate(piece.basis)}
        for g in ideal.generators:
            for m in monomials_of_degree(CV3, 5 - g.weighted_degree()):
                vec = [0] * len(piece.basis)
                for mono, coeff in g.mono_shift(m).terms.items():
                    vec[index[mono]] = coeff
                products.append(vec)
        for row in piece.hnf:
            found = False
            for combo in itertools.product(range(-4, 5), repeat=len(products)):
                if all(
                    sum(c * p[i] for c, p in zip(combo, products)) == row[i]
                    for i in range(len(row))
                ):
                    found = True
                    break
            assert found, row


class TestContains:
    def test_multiple_of_generator(self):
        assert GradedIdeal(CV3, THEOREM_IDEAL).contains(8 * c3)

    def test_halved_generator_is_outside(self):
        assert not GradedIdeal(CV3, THEOREM_IDEAL).contains(2 * c3)

    def test_generators_contained(self):
        ideal = GradedIdeal(CV3, THEOREM_IDEAL)
        for g in ideal.generators:
            assert ideal.contains(g)

    def test_zero_contained(self):
        assert GradedIdeal(CV3, []).contains(ZERO)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(NotHomogeneous):
            GradedIdeal(CV3, THEOREM_IDEAL).contains(c1 + c2)

    def test_variable_outside_the_ring_is_outside(self):
        # 4*c3*H is a multiple of a generator, but H is not in Z[c1, c2, c3]
        ideal = GradedIdeal(CV3, THEOREM_IDEAL)
        assert ideal.contains(4 * c3 * c1)
        assert not ideal.contains(4 * c3 * H)

    def test_generator_outside_the_ring_rejected(self):
        with pytest.raises(ValueError, match="outside the ring"):
            GradedIdeal(CV3, [4 * c3, c1 * H])

    def test_a_variable_with_an_earlier_slot_is_still_outside(self):
        # zout9 is seen first, so its exponent field lies below those of the
        # ring's variables, though it comes after them in the variable order
        outsider = var("zout9")
        y1, y2 = var("yin1"), var("yin2")
        assert make_mono([("zout9", 1)]) < make_mono([("yin1", 1)])
        assert var_key("yin1") < var_key("yin2") < var_key("zout9")
        ideal = GradedIdeal(["yin1", "yin2"], [y1 * y2])
        assert ideal.contains(y1**2 * y2)
        assert not ideal.contains(y1 * y2 * outsider)
        with pytest.raises(ValueError, match=r"outside the ring: \{'zout9'\}\Z"):
            GradedIdeal(["yin1", "yin2"], [y1 * y2, y1 * outsider])

    def test_pushforward_ideal_contains_bundle_relation(self):
        from eqchow.localization import veronese_pushforward
        from eqchow.symfunc import build_roots, symmetric_to_chern, total_chern_poly

        hvars = CV3 + ("H",)
        pushed = GradedIdeal(hvars, [veronese_pushforward(3, r) for r in range(3)])
        bundle = symmetric_to_chern(
            total_chern_poly(build_roots(3, "Sym2(E*)")), 3
        )
        assert pushed.contains(bundle)


class TestEqualUpTo:
    def test_theorem_ideal_vs_pipeline_image(self):
        rhat = H**3 - 2 * c1 * H**2 + (c1**2 + c2) * H + (c3 - c1 * c2)
        ph = H**3 - 2 * c1 * H**2 + 4 * c2 * H - 8 * c3
        rels = [(ph * rhat).substitute("H", c1)] + [
            (2 ** (2 - r) * H**r * rhat).substitute("H", c1) for r in range(3)
        ]
        assert equal_up_to(GradedIdeal(CV3, rels), GradedIdeal(CV3, THEOREM_IDEAL), 12)

    def test_index_two_sublattice(self):
        assert not equal_up_to(
            GradedIdeal(CV3, [2 * c3]), GradedIdeal(CV3, [4 * c3]), 3
        )

    def test_rank4_twist1_alpha_ideal(self):
        from eqchow.pipeline import alpha_family

        vs = ("c1", "c2", "c3", "c4")
        lhs = GradedIdeal(vs, alpha_family(4).substituted(1))
        rhs = GradedIdeal(vs, [2 * c1, c1**2, 2 * c3, c1 * c3])
        assert equal_up_to(lhs, rhs, 10)

    def test_report_shape(self):
        cmp = compare_up_to(GradedIdeal(CV3, [2 * c3]), GradedIdeal(CV3, [4 * c3]), 4)
        assert not cmp.equal and cmp.first_mismatch == 3
        obj = cmp.to_json_obj()
        json.dumps(obj)  # must be serializable
        by_degree = {e["degree"]: e for e in obj["per_degree"]}
        assert by_degree[3]["equal"] is False
        assert by_degree[3]["lhs_hnf"] == [[0, 0, 2]]
        assert by_degree[3]["rhs_hnf"] == [[0, 0, 4]]
        assert by_degree[2]["equal"] is True

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            equal_up_to(GradedIdeal(CV3, []), GradedIdeal(("c1",), []), 2)

    def test_piece_walk_rejects_an_ambient_mismatch(self):
        with pytest.raises(ValueError, match="different ambient rings"):
            compare_pieces(GradedIdeal(CV3, []), GradedIdeal(("c1",), []), 2)


def _random_gens(rng, vs, count):
    gens = []
    for _ in range(count):
        p = ZERO
        for m in monomials_of_degree(vs, rng.randint(1, 5)):
            if rng.random() < 0.5:
                p = p + Polynomial({m: rng.randint(-6, 6)})
        if p:
            gens.append(p)
    return gens


def _added_members(rng, vs, gens):
    """The generators plus integer combinations of monomial multiples of
    them, shuffled: the same ideal with a different generating set."""
    out = list(gens)
    top = max(g.weighted_degree() for g in gens)
    for _ in range(rng.randint(1, 3)):
        d = top + rng.randint(0, 2)
        member = ZERO
        for g in gens:
            shifts = monomials_of_degree(vs, d - g.weighted_degree())
            member = member + rng.randint(-3, 3) * g.mono_shift(rng.choice(shifts))
        if member:
            out.append(member)
    rng.shuffle(out)
    return out


class TestContainmentVsPieces:
    """``compare_up_to`` certifies equality by generator containment; the
    per-degree HNF walk ``compare_pieces`` is the independent second route."""

    def test_routes_agree_on_random_pairs(self):
        rng = random.Random(45)
        verdicts = []
        for _ in range(80):
            vs = tuple(f"c{i}" for i in range(1, rng.randint(2, 4) + 1))
            gens = _random_gens(rng, vs, rng.randint(1, 3))
            if not gens:
                continue
            lhs = GradedIdeal(vs, gens)
            bound = 2 * lhs.max_generator_degree()
            same = GradedIdeal(vs, _added_members(rng, vs, gens))
            assert compare_up_to(lhs, same, bound).equal
            assert compare_pieces(lhs, same, bound).equal
            for other in (_random_gens(rng, vs, 3), [3 * gens[0]] + gens[1:]):
                rhs = GradedIdeal(vs, other)
                fast = compare_up_to(lhs, rhs, bound)
                walk = compare_pieces(lhs, rhs, bound)
                assert fast.equal == walk.equal
                if fast.equal:
                    assert fast.per_degree == [] and fast.first_mismatch is None
                else:
                    assert fast.first_mismatch == walk.first_mismatch
                    assert fast.per_degree == walk.per_degree
                verdicts.append(fast.equal)
        assert True in verdicts and False in verdicts

    def test_disagreeing_routes_raise(self, monkeypatch):
        monkeypatch.setattr(GradedIdeal, "contains", lambda self, p: False)
        ideal = GradedIdeal(CV3, THEOREM_IDEAL)
        with pytest.raises(RoutesDisagree):
            compare_up_to(ideal, GradedIdeal(CV3, THEOREM_IDEAL[::-1]), 8)

    def test_golden_orthogonal_rank8(self, capsys):
        # certified by containment in a fraction of a second; the per-degree
        # walk to the default bound 18 took about a minute
        argv = ["orthogonal", "--n", "8", "--k", "1", "--force", "--format", "json"]
        assert run(argv) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == (
            "ace6a170ff7934cb5dd52ec5a8ef55c3bd8be571961e615eb447344ec2384e04"
        )


class TestSimplify:
    def test_drops_redundant_multiple(self):
        ideal = GradedIdeal(CV3, THEOREM_IDEAL + [8 * c3])
        assert list(ideal.simplified_generators(10)) == THEOREM_IDEAL

    def test_collapses_twist_family_to_single_generator(self):
        # two relations, the second a monomial multiple of the first after
        # the torsor substitution
        a1 = (3 * H - 2 * c1).substitute("H", c1)
        a2 = (3 * H**2 - 2 * c1 * H).substitute("H", c1)
        ideal = GradedIdeal(CV3, [a1, a2])
        assert list(ideal.simplified_generators(6)) == [c1]

    def test_theorem_pipeline_generators(self):
        rhat = H**3 - 2 * c1 * H**2 + (c1**2 + c2) * H + (c3 - c1 * c2)
        ph = H**3 - 2 * c1 * H**2 + 4 * c2 * H - 8 * c3
        rels = [(ph * rhat).substitute("H", c1)] + [
            (2 ** (2 - r) * H**r * rhat).substitute("H", c1) for r in range(3)
        ]
        assert list(GradedIdeal(CV3, rels).simplified_generators(12)) == THEOREM_IDEAL

    def test_output_stops_at_the_top_generator_degree(self):
        rng = random.Random(47)
        for _ in range(20):
            gens = _random_gens(rng, CV3, 3)
            if not gens:
                continue
            ideal = GradedIdeal(CV3, gens)
            top = ideal.max_generator_degree()
            outputs = {
                ideal.simplified_generators(d) for d in range(top, 2 * top + 1)
            }
            assert len(outputs) == 1

    def test_bound_below_generators_rejected(self):
        with pytest.raises(DegreeBoundTooLow, match="bound 3 .* generator degree 5"):
            GradedIdeal(CV3, THEOREM_IDEAL).simplified_generators(3)

    def test_preserves_ideal_random(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(2, 4)
            vs = tuple(f"c{i}" for i in range(1, n + 1))
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
            assert equal_up_to(ideal, small, bound)
            assert len(small.generators) <= len(ideal.generators) + bound


class TestLatticeInvariants:
    def test_hnf_idempotent_and_order_free(self):
        rng = random.Random(42)
        for _ in range(200):
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
            assert relat.hnf() == h
            rng.shuffle(vecs)
            lat2 = IntegerLattice(dim)
            for v in vecs:
                lat2.insert(list(v))
            assert lat2.hnf() == h

    def test_hnf_defining_conditions(self):
        rng = random.Random(45)
        for _ in range(200):
            dim = rng.randint(1, 7)
            lat = IntegerLattice(dim)
            for _ in range(rng.randint(1, 8)):
                vec = [rng.randint(-20, 20) * rng.randint(0, 1) for _ in range(dim)]
                lat.insert(vec)
            h = lat.hnf()
            pivots = []
            for row in h:
                # the first nonzero entry is the pivot: zeros to its left
                j = next(k for k, u in enumerate(row) if u)
                assert row[j] > 0
                pivots.append(j)
            assert pivots == sorted(set(pivots))
            for i, j in enumerate(pivots):
                for row in h[:i]:
                    assert 0 <= row[j] < h[i][j]
            # the HNF rows and the echelon rows span the same lattice
            back = IntegerLattice(dim)
            for row in h:
                back.insert(list(row))
            assert all(back.contains(list(row)) for row in lat.rows)
            assert all(lat.contains(list(row)) for row in h)

    def test_hnf_shape(self):
        lat = IntegerLattice(3)
        lat.insert([2, 4, 4])
        lat.insert([6, 6, 12])
        h = lat.hnf()
        # pivots positive, entries above pivots reduced into [0, pivot)
        assert h == ((2, 4, 4), (0, 6, 0))
        lat.insert([0, 0, 1])
        assert lat.hnf() == ((2, 4, 0), (0, 6, 0), (0, 0, 1))

    def test_pivots_stay_positive(self):
        # the extended gcd of 6 and -4 is -2; the rewritten row is negated
        lat = IntegerLattice(2)
        lat.insert([6, 0])
        lat.insert([-4, 1])
        assert lat.rows == [[2, -2], [0, 3]]
        assert lat.reduce([1, 0]) == [1, 0]
        assert lat.reduce([-5, 7]) == [1, 1]
        lat = IntegerLattice(2)
        lat.insert([-3, 5])
        assert lat.rows == [[3, -5]]

    @pytest.mark.parametrize("vec", [[1, 2, 3, 4], [1, 2]], ids=["longer", "shorter"])
    def test_wrong_length_queries_rejected(self, vec):
        # a longer vector must not pass on its first three entries, nor a
        # shorter one read past its end
        lat = IntegerLattice(3)
        lat.insert([1, 2, 3])
        lat.insert([0, 0, 5])
        for query in (lat.insert, lat.contains, lat.reduce):
            with pytest.raises(ValueError, match="wrong dimension"):
                query(vec)
        assert lat.contains([1, 2, 8]) and lat.reduce([1, 2, 9]) == [0, 0, 1]

    def test_generator_shuffle_preserves_pieces(self):
        rng = random.Random(43)
        gens = THEOREM_IDEAL + [c1 * c2 * c3, 6 * c2**2]
        base = GradedIdeal(CV3, gens)
        for _ in range(10):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            other = GradedIdeal(CV3, shuffled)
            for d in range(9):
                assert other.graded_piece(d).hnf == base.graded_piece(d).hnf

    def test_membership_against_bruteforce(self):
        rng = random.Random(44)
        box = 3
        for _ in range(200):
            dim = rng.randint(1, 4)
            gens = [
                [rng.randint(-3, 3) for _ in range(dim)]
                for _ in range(rng.randint(1, 3))
            ]
            lat = IntegerLattice(dim)
            for g in gens:
                lat.insert(list(g))
            coeffs = [rng.randint(-box, box) for _ in gens]
            target = [
                sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim)
            ]
            # brute-force certificate implies lattice membership
            assert lat.contains(list(target))


# The slice-based row operations IntegerLattice had before it kept each row's
# support, kept as the reference its in-place kernel must agree with.
class ReferenceLattice(IntegerLattice):
    __slots__ = ()

    def insert(self, vec):
        vec = self._copy(vec)
        changed = False
        j = 0
        while True:
            while j < self.dim and not vec[j]:
                j += 1
            if j >= self.dim:
                break
            i = bisect_left(self.pivot_cols, j)
            if i == len(self.pivot_cols) or self.pivot_cols[i] != j:
                self.rows.insert(i, vec if vec[j] > 0 else [-u for u in vec])
                self.pivot_cols.insert(i, j)
                changed = True
                break
            row = self.rows[i]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                vec[j:] = [u - q * v for u, v in zip(vec[j:], row[j:])]
            else:
                x, y, g = _xgcd(a, b)
                ag, bg = a // g, b // g
                new_row = [x * u + y * v for u, v in zip(row[j:], vec[j:])]
                vec[j:] = [ag * v - bg * u for u, v in zip(row[j:], vec[j:])]
                row[j:] = new_row
                changed = True
        if changed:
            self._hnf = None
        return changed

    def _walk(self, vec, exact, rows=None):
        if rows is None:
            rows = zip(self.pivot_cols, self.rows)
        out = self._copy(vec)
        for j, row in rows:
            v = out[j]
            if not v:
                continue
            p = row[j]
            q, rem = divmod(v, p)
            if exact and rem:
                return None
            if q:
                out[j:] = [u - q * w for u, w in zip(out[j:], row[j:])]
        return out

    def hnf(self):
        # top down: each echelon row walked by the echelon rows below it
        if self._hnf is None:
            pairs = list(zip(self.pivot_cols, self.rows))
            self._hnf = (
                tuple(
                    tuple(self._walk(row, False, pairs[i + 1 :]))
                    for i, (_, row) in enumerate(pairs)
                ),
                (),
            )
        return self._hnf[0]


def _dense_case(rng):
    """Dim 6-10, entries in [-9, 9], up to 10 vectors."""
    dim = rng.randint(6, 10)
    vecs = [
        [rng.randint(-9, 9) * (rng.random() < 0.8) for _ in range(dim)]
        for _ in range(rng.randint(1, 10))
    ]
    return dim, vecs


def _sparse_case(rng):
    """Dim up to 2,000, at most 12 nonzeros per vector, entries up to 2^40;
    the columns come from a pool of a few dozen, so pivots collide and rows
    merge, and some vectors are combinations of earlier ones."""
    dim = rng.randint(200, 2000)
    pool = sorted(rng.sample(range(dim), rng.randint(12, 40)))
    vecs = []
    for _ in range(rng.randint(1, 12)):
        vec = [0] * dim
        for k in rng.sample(pool, rng.randint(1, 12)):
            vec[k] = rng.choice([-1, 1]) * rng.randint(1, 2**rng.choice([3, 20, 40]))
        vecs.append(vec)
    if len(vecs) > 1:
        a, b = rng.sample(vecs, 2)
        s, t = rng.randint(-5, 5), rng.randint(-5, 5)
        vecs.append([s * u + t * v for u, v in zip(a, b)])
    return dim, vecs


def _queries(rng, dim, vecs):
    """Members (integer combinations of the vectors), the members with one
    entry moved, and random vectors on the vectors' columns."""
    cols = sorted({k for v in vecs for k, u in enumerate(v) if u}) or [0]
    queries = []
    for _ in range(4):
        coeffs = [rng.randint(-3, 3) for _ in vecs]
        member = [sum(c * v[k] for c, v in zip(coeffs, vecs)) for k in range(dim)]
        moved = list(member)
        moved[rng.choice(cols)] += rng.choice([-1, 1])
        loose = [0] * dim
        for k in cols:
            loose[k] = rng.randint(-50, 50)
        queries += [member, moved, loose]
    return queries


class TestRowSupports:
    """The in-place kernel against the slice-based reference: the same echelon
    rows after every insert, the same HNF, memberships and remainders."""

    @pytest.mark.parametrize("shape", [_dense_case, _sparse_case], ids=["dense", "sparse"])
    def test_kernel_matches_the_reference(self, shape):
        rng = random.Random(46)
        for _ in range(150 if shape is _dense_case else 40):
            dim, vecs = shape(rng)
            lat, ref = IntegerLattice(dim), ReferenceLattice(dim)
            for vec in vecs:
                assert lat.insert(vec) == ref.insert(vec)
                assert lat.rows == ref.rows and lat.pivot_cols == ref.pivot_cols
                self.assert_supports_exact(lat)
            assert lat.hnf() == ref.hnf()
            for query in _queries(rng, dim, vecs):
                assert lat.contains(query) == ref.contains(query)
                assert lat.reduce(query) == ref.reduce(query)

    @pytest.mark.parametrize("shape", [_dense_case, _sparse_case], ids=["dense", "sparse"])
    def test_canonical_rows_between_inserts(self, shape):
        # hnf() publishes canonical rows that later queries walk and the next
        # insert drops: whether it ran or not, after every step the answers
        # are the reference's
        rng = random.Random(47)
        for _ in range(100 if shape is _dense_case else 30):
            dim, vecs = shape(rng)
            queries = _queries(rng, dim, vecs)
            lat, ref = IntegerLattice(dim), ReferenceLattice(dim)
            for vec in vecs:
                assert lat.insert(vec) == ref.insert(vec)
                assert lat.rows == ref.rows and lat.pivot_cols == ref.pivot_cols
                self.assert_supports_exact(lat)
                if rng.random() < 0.6:
                    assert lat.hnf() == ref.hnf()
                    self.assert_supports_exact(lat, canonical=True)
                for query in rng.sample(queries, 3):
                    assert lat.contains(query) == ref.contains(query)
                    assert lat.reduce(query) == ref.reduce(query)

    @staticmethod
    def assert_supports_exact(lat, canonical=False):
        # each support is its row's nonzero columns from the pivot on, and
        # the row is zero before the pivot; a canonical row's entries at the
        # later pivots lie in [0, pivot)
        rows, supports = lat._hnf if canonical else (lat.rows, lat.supports)
        assert len(rows) == len(supports) == lat.rank
        for row, j, support in zip(rows, lat.pivot_cols, supports):
            assert not any(row[:j]) and row[j] > 0
            assert support == [k for k in range(j, lat.dim) if row[k]]
            if canonical:
                later = [(p, r[p]) for p, r in zip(lat.pivot_cols, rows) if p > j]
                assert all(0 <= row[p] < pivot for p, pivot in later)

    def test_inputs_are_left_alone(self):
        # rows are negated, merged and walked in place, on copies: the
        # vectors given keep their entries
        vec, other = [0, -4, 6, 0], [0, 6, 3, 1]
        lat = IntegerLattice(4)
        lat.insert(vec)
        lat.insert(other)
        assert lat.rows == [[0, 2, 9, 1], [0, 0, 24, 2]]
        assert lat.reduce(vec) == [0, 0, 0, 0] and lat.contains(other)
        assert vec == [0, -4, 6, 0] and other == [0, 6, 3, 1]


def test_threads_share_one_ideal():
    # Threads build, canonicalize and query the lattices of one ideal at
    # once, all starting on the same degree; each answer equals the one a
    # single thread gets from a fresh ideal with the same generators.
    gens = [
        4 * c3 + 2 * c1 * c2 - 6 * c1**3,
        3 * c1 * c3 - 5 * c2**2 + 9 * c1**2 * c2,
        6 * c2 * c3 + 4 * c1**2 * c3 - 10 * c1 * c2**2,
    ]
    rng = random.Random(48)
    monos = {d: monomials_of_degree(CV3, d) for d in range(9)}
    probes = {d: [] for d in range(3, 9)}
    for _ in range(120):
        g = rng.choice(gens)
        d = rng.randint(g.weighted_degree(), 8)
        shifts = [m for m in monos[d - g.weighted_degree()] if rng.random() < 0.5]
        cofactor = Polynomial({m: rng.randint(-4, 4) for m in shifts})
        noise = Polynomial({m: 1 for m in monos[d] if rng.random() < 0.2})
        probes[d].append(g * cofactor + (noise if rng.random() < 0.5 else ZERO))
    single = GradedIdeal(CV3, gens)
    expected = {
        d: (single.graded_piece(d), [single.contains(p) for p in ps])
        for d, ps in probes.items()
    }
    assert any(any(a) and not all(a) for _, a in expected.values())
    answers = []

    def work(shared, start, order):
        start.wait(timeout=30)
        for d in order:
            answers.append(
                (d, [shared.contains(p) for p in probes[d]], shared.graded_piece(d))
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(12):
            shared, start = GradedIdeal(CV3, gens), threading.Barrier(4)
            first = rng.choice(sorted(probes))
            orders = [[first, *rng.sample(sorted(probes), 6)] for _ in range(4)]
            threads = [
                threading.Thread(target=work, args=(shared, start, order))
                for order in orders
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(answers) == 12 * 4 * 7
    for d, contained, piece in answers:
        assert (piece, contained) == expected[d]
