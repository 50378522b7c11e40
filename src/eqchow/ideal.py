"""Homogeneous ideal arithmetic over Z in a weighted-graded polynomial ring.

Every query is answered per graded degree: the degree-d piece of an ideal is
the integer lattice spanned by the coordinate vectors of all products
(monomial x generator) of weighted degree d, inside the free module on the
degree-d monomials.  Lattices are kept in integer row-echelon form and
canonicalized to the (unique) Hermite normal form, so equality of graded
pieces is equality of HNF matrices and membership is an exact integer
triangular solve.

Ideal equality is certified by generator containment: two homogeneous ideals
have the same graded pieces up to D exactly when each side's generators of
degree <= D lie in the other ideal, so only the generator degrees need
lattices.  The per-degree HNF comparison (``compare_pieces``) is the second,
independent route; it locates and documents the first mismatch.  The bound D is
part of every report.  Monomials, their order and ``monomials_of_degree``
(re-exported here) follow the conventions stated once in ``eqchow.poly``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import compress, count
from operator import or_

from .poly import (
    Mono,
    Polynomial,
    Record,
    mono_str,
    monomials_of_degree,
    ring_mask,
    var_key,
)


class NotHomogeneous(ValueError):
    """Polynomial is not homogeneous in the weighted grading."""


class DegreeBoundTooLow(ValueError):
    """A degree bound is below the maximal generator degree of the ideal."""


class RoutesDisagree(RuntimeError):
    """Generator containment and the per-degree HNF comparison disagree."""


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x*a + y*b = g = gcd(a, b) >= 0."""
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return (x, y, g) if g >= 0 else (-x, -y, -g)


class IntegerLattice:
    """Sublattice of Z^dim spanned by inserted integer vectors.

    Rows are kept in integer echelon form, one positive pivot per column and
    rows ordered by pivot column.  Next to each dense row, ``supports`` keeps
    its nonzero columns in ascending order, the pivot first (the entries
    before the pivot are zero); every row operation loops over a support and
    updates in place, so it costs the nonzeros it touches, not the width.

    ``hnf`` builds the canonical rows from the bottom up: each echelon row is
    walked by the canonical rows below it, whose entries at later pivots are
    already in [0, pivot), so the walk multiplies by bounded entries and not
    by the echelon rows' unbounded ones.  The canonical rows and their
    supports are published together in one assignment to ``_hnf``; from then
    on ``contains`` and ``reduce`` walk them, until an insert clears it.  The
    echelon rows are never rewritten by ``hnf``.
    """

    __slots__ = ("dim", "rows", "pivot_cols", "supports", "_hnf")

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []
        self.pivot_cols: list[int] = []
        self.supports: list[list[int]] = []
        # the canonical rows and their supports, or None until ``hnf``
        self._hnf: tuple[tuple, tuple] | None = None

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _copy(self, vec: list[int]) -> list[int]:
        """A copy of ``vec``; ValueError unless it has ``dim`` entries."""
        if len(vec) != self.dim:
            raise ValueError("vector has the wrong dimension")
        return list(vec)

    def insert(self, vec: list[int]) -> bool:
        """Add a vector to the lattice; returns True if the lattice changed.

        ``nonzero`` scans the working vector once, reading each entry only
        after every step at an earlier column has updated it, so it yields
        the column each step clears.  An exact step subtracts a multiple of
        the row over its support; a gcd step first writes the vector's
        columns outside the support, then merges the two over the support."""
        vec = self._copy(vec)
        changed = False
        nonzero = compress(count(), vec)
        for j in nonzero:
            i = bisect_left(self.pivot_cols, j)
            if i == len(self.pivot_cols) or self.pivot_cols[i] != j:
                support = [j, *nonzero]
                if vec[j] < 0:
                    for k in support:
                        vec[k] = -vec[k]
                self.rows.insert(i, vec)
                self.pivot_cols.insert(i, j)
                self.supports.insert(i, support)
                changed = True
                break
            row, support = self.rows[i], self.supports[i]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for k in support:
                    vec[k] -= q * row[k]
            else:
                x, y, g = _xgcd(a, b)
                ag, bg = a // g, b // g
                added = [k for k in compress(range(j, self.dim), vec[j:]) if not row[k]]
                for k in added:
                    v = vec[k]
                    row[k] = y * v
                    vec[k] = ag * v
                for k in support:
                    u, v = row[k], vec[k]
                    row[k] = x * u + y * v
                    vec[k] = ag * v - bg * u
                self.supports[i] = [k for k in sorted(support + added) if row[k]]
                changed = True
        if changed:
            self._hnf = None
        return changed

    def _walk(self, vec: list[int], exact: bool, rows=None) -> list[int] | None:
        """``vec`` reduced into [0, pivot) at the pivots of ``rows``, (pivot
        column, row, support) triples in pivot order, each row subtracted
        its floor quotient times; None if ``exact`` and an entry is not a
        multiple of its pivot.  ``rows`` defaults to the canonical rows
        once ``hnf`` has published them, else the echelon rows; ``_hnf`` is
        read once, so a concurrent ``hnf`` cannot pair a row with another
        row's support."""
        if rows is None:
            rows = zip(self.pivot_cols, *(self._hnf or (self.rows, self.supports)))
        out = self._copy(vec)
        for j, row, support in rows:
            v = out[j]
            if v:
                q = v // row[j]
                if q:
                    for k in support:
                        out[k] -= q * row[k]
                if exact and out[j]:
                    return None
        return out

    def contains(self, vec: list[int]) -> bool:
        out = self._walk(vec, True)
        return not (out is None or any(out))

    def reduce(self, vec: list[int]) -> list[int]:
        """Canonical coset representative (entries at pivot columns reduced
        into [0, pivot)); the same for every echelon basis of the lattice."""
        return self._walk(vec, False)

    def hnf(self) -> tuple[tuple[int, ...], ...]:
        """The Hermite normal form.  A row never touches an earlier pivot
        column, so walking by later rows leaves every pivot in place; a row
        the walk leaves unchanged keeps its echelon support."""
        canon = self._hnf
        if canon is None:
            pivots, rows, supports = self.pivot_cols, [], []
            for i in range(len(pivots) - 1, -1, -1):
                row, support = self.rows[i], self.supports[i]
                if rows:
                    out = self._walk(row, False, zip(pivots[i + 1 :], rows, supports))
                    if out != row:
                        j = pivots[i]
                        row, support = out, list(compress(range(j, self.dim), out[j:]))
                rows.insert(0, tuple(row))
                supports.insert(0, support)
            canon = self._hnf = tuple(rows), tuple(supports)
        return canon[0]


class GradedPiece(Record):
    """Degree-d slice of an ideal: monomial basis plus the HNF of the lattice
    of ideal elements in that degree."""

    __slots__ = ("degree", "basis", "hnf")

    @property
    def rank(self) -> int:
        return len(self.hnf)


class GradedIdeal:
    """Homogeneous ideal given by generators in a weighted polynomial ring."""

    def __init__(self, variables, generators):
        self.variables: tuple[str, ...] = tuple(
            sorted(set(variables), key=var_key)
        )
        # the bits a monomial outside the ring sets: another variable's field
        self._outside = ~ring_mask(self.variables)
        gens = []
        for g in generators:
            if isinstance(g, int):
                g = Polynomial.constant(g)
            if not g:
                continue
            if not g.is_homogeneous():
                raise NotHomogeneous(f"generator is not homogeneous: {g}")
            if reduce(or_, g.terms) & self._outside:
                unknown = set(g.variables()) - set(self.variables)
                raise ValueError(f"generator uses variables outside the ring: {unknown}")
            gens.append(g)
        self.generators: tuple[Polynomial, ...] = tuple(gens)
        # degree -> its lattice and the position of each basis monomial
        self._lattices: dict[int, tuple[IntegerLattice, dict[Mono, int]]] = {}

    def __repr__(self) -> str:
        gens = ", ".join(g.to_text() for g in self.generators)
        return f"GradedIdeal[{', '.join(self.variables)}]({gens})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedIdeal):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.generators == other.generators
        )

    def max_generator_degree(self) -> int:
        return max((g.weighted_degree() for g in self.generators), default=0)

    def require_degree_bound(self, max_degree: int) -> None:
        """Raise DegreeBoundTooLow if a bound misses some generator."""
        needed = self.max_generator_degree()
        if max_degree < needed:
            raise DegreeBoundTooLow(
                f"degree bound {max_degree} is below the maximal generator "
                f"degree {needed}"
            )

    def _span(self, lat: IntegerLattice, gens, degree: int, index) -> None:
        """Insert every degree-``degree`` multiple (generator x monomial) of
        ``gens`` into ``lat``: generators in order, monomials in canonical
        order, which fixes the echelon rows.  Each term t of a generator goes
        to the entry of t + m, a basis monomial with no exponent at the field
        limit (``monomials_of_degree`` checks), so no guard check is needed."""
        for g in gens:
            for m in monomials_of_degree(self.variables, degree - g.weighted_degree()):
                vec = [0] * len(index)
                for t, c in g.terms.items():
                    vec[index[t + m]] = c
                lat.insert(vec)

    def lattice(self, degree: int) -> IntegerLattice:
        if degree not in self._lattices:
            basis = monomials_of_degree(self.variables, degree)
            index = {m: i for i, m in enumerate(basis)}
            lat = IntegerLattice(len(index))
            self._span(lat, self.generators, degree, index)
            self._lattices[degree] = lat, index
        return self._lattices[degree][0]

    def graded_piece(self, degree: int) -> GradedPiece:
        if degree < 0:
            raise ValueError("degree must be non-negative")
        basis = monomials_of_degree(self.variables, degree)
        return GradedPiece(degree, basis, self.lattice(degree).hnf())

    def contains(self, p: Polynomial) -> bool:
        """Exact ideal membership for a homogeneous polynomial."""
        if not p:
            return True
        if not p.is_homogeneous():
            raise NotHomogeneous(f"membership query needs a homogeneous input: {p}")
        if reduce(or_, p.terms) & self._outside:
            return False
        degree = p.weighted_degree()
        lat, index = self.lattice(degree), self._lattices[degree][1]
        vec = [0] * len(index)
        for m, c in p.terms.items():
            vec[index[m]] = c
        return lat.contains(vec)

    def simplified_generators(self, max_degree: int) -> tuple[Polynomial, ...]:
        """Small generating set reproducing every graded piece up to the bound.

        Walks degrees upward; in each degree keeps only the HNF basis vectors
        not already generated by the output so far, each reduced modulo the
        lattice of the previously kept ones; a vector is generated exactly
        when that canonical remainder is zero, so one ``reduce`` decides both.
        Ties inside a degree follow the canonical basis order.  The walk
        stops at the maximal generator degree: by then the kept set
        reproduces the piece of every generator, so it generates the whole
        ideal and no higher degree keeps anything.
        """
        self.require_degree_bound(max_degree)
        kept: list[Polynomial] = []
        for d in range(min(max_degree, self.max_generator_degree()) + 1):
            piece = self.graded_piece(d)
            if not piece.hnf:
                continue
            basis = piece.basis
            index = self._lattices[d][1]
            partial = IntegerLattice(len(basis))
            self._span(partial, kept, d, index)
            for row in piece.hnf:
                red = partial.reduce(row)
                if any(red):
                    kept.append(
                        Polynomial({basis[i]: c for i, c in enumerate(red) if c})
                    )
                    partial.insert(red)
        return tuple(kept)


class IdealComparison(Record):
    """Equality report between two ideals up to a degree bound.

    ``per_degree`` is empty when the ideals are equal (certified by generator
    containment); otherwise it holds one entry per degree up to the first
    mismatch, which ends it and carries the monomial basis and both HNF
    matrices as the audit trail.  The repr leaves the audit trail out; the
    list makes the report unhashable.
    """

    __slots__ = ("equal", "max_degree", "first_mismatch", "per_degree")
    _repr_fields = ("equal", "max_degree", "first_mismatch")
    __hash__ = None

    def to_json_obj(self) -> dict:
        return dict(zip(self.__slots__, self._values))


def _generated_within(lhs: GradedIdeal, rhs: GradedIdeal, max_degree: int) -> bool:
    """Whether every generator of ``lhs`` of degree <= max_degree lies in rhs."""
    return all(
        rhs.contains(g)
        for g in lhs.generators
        if g.weighted_degree() <= max_degree
    )


def compare_up_to(lhs: GradedIdeal, rhs: GradedIdeal, max_degree: int) -> IdealComparison:
    """Compare two ideals' graded pieces up to ``max_degree``.

    Equality is certified by mutual generator containment, which builds
    lattices only in the generator degrees.  When containment fails,
    ``compare_pieces`` walks the degrees up to the first mismatch and its
    HNF audit trail; if that walk finds every piece equal, the two routes
    disagree and RoutesDisagree is raised rather than a report returned.
    """
    if lhs.variables != rhs.variables:
        raise ValueError("ideals live in different ambient rings")
    if _generated_within(lhs, rhs, max_degree) and _generated_within(
        rhs, lhs, max_degree
    ):
        return IdealComparison(True, max_degree, None, [])
    cmp = compare_pieces(lhs, rhs, max_degree)
    if cmp.equal:
        raise RoutesDisagree(
            f"a generator lies outside the other ideal, yet every graded piece "
            f"up to degree {max_degree} is equal"
        )
    return cmp


def compare_pieces(lhs: GradedIdeal, rhs: GradedIdeal, max_degree: int) -> IdealComparison:
    """Compare graded pieces degree by degree by their HNF matrices, up to
    the bound or the first mismatch, which ends the walk and carries the two
    HNF matrices and the monomial basis as the audit trail."""
    if lhs.variables != rhs.variables:
        raise ValueError("ideals live in different ambient rings")
    per_degree: list[dict] = []
    first_mismatch: int | None = None
    for d in range(max_degree + 1):
        a = lhs.graded_piece(d)
        b = rhs.graded_piece(d)
        if a.hnf == b.hnf:
            per_degree.append({"degree": d, "equal": True, "rank": a.rank})
        else:
            first_mismatch = d
            per_degree.append(
                {
                    "degree": d,
                    "equal": False,
                    "basis": [mono_str(m) for m in a.basis],
                    "lhs_hnf": [list(r) for r in a.hnf],
                    "rhs_hnf": [list(r) for r in b.hnf],
                }
            )
            break
    equal = first_mismatch is None
    return IdealComparison(equal, max_degree, first_mismatch, per_degree)


def equal_up_to(lhs: GradedIdeal, rhs: GradedIdeal, max_degree: int) -> bool:
    return compare_up_to(lhs, rhs, max_degree).equal
