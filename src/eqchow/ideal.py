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
independent route; it locates and documents every mismatch.  The bound D is
part of every report.  Monomials, their order and ``monomials_of_degree``
(re-exported here) follow the conventions stated once in ``eqchow.poly``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
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
    rows ordered by pivot column; ``hnf`` walks each row by the rows below
    it, which reduces the entries above each pivot into [0, pivot), a form
    unique for the lattice.
    """

    __slots__ = ("dim", "rows", "pivot_cols", "_hnf")

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []
        self.pivot_cols: list[int] = []
        self._hnf: tuple[tuple[int, ...], ...] | None = None

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _copy(self, vec: list[int]) -> list[int]:
        """A copy of ``vec``; ValueError unless it has ``dim`` entries."""
        if len(vec) != self.dim:
            raise ValueError("vector has the wrong dimension")
        return list(vec)

    def insert(self, vec: list[int]) -> bool:
        """Add a vector to the lattice; returns True if the lattice changed."""
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

    def _walk(self, vec: list[int], exact: bool, start: int = 0) -> list[int] | None:
        """``vec`` reduced into [0, pivot) at the pivots of the rows from
        ``start`` on; None if ``exact`` and an entry is not a multiple."""
        out = self._copy(vec)
        for i, j in enumerate(self.pivot_cols[start:], start):
            v = out[j]
            if not v:
                continue
            p = self.rows[i][j]
            q, rem = divmod(v, p)
            if exact and rem:
                return None
            if q:
                row = self.rows[i]
                out[j:] = [u - q * w for u, w in zip(out[j:], row[j:])]
        return out

    def contains(self, vec: list[int]) -> bool:
        out = self._walk(vec, exact=True)
        return out is not None and not any(out)

    def reduce(self, vec: list[int]) -> list[int]:
        """Canonical coset representative (entries at pivot columns reduced
        into [0, pivot))."""
        return self._walk(vec, exact=False)

    def hnf(self) -> tuple[tuple[int, ...], ...]:
        """The Hermite normal form; a row never touches an earlier pivot
        column, so walking by later rows leaves every pivot in place."""
        if self._hnf is None:
            self._hnf = tuple(
                tuple(self._walk(row, exact=False, start=i + 1))
                for i, row in enumerate(self.rows)
            )
        return self._hnf


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
        lattice of the previously kept ones.  Ties inside a degree follow the
        canonical basis order.  The walk stops at the maximal generator
        degree: by then the kept set reproduces the piece of every generator,
        so it generates the whole ideal and no higher degree keeps anything.
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
                row = list(row)
                if not partial.contains(row):
                    red = partial.reduce(row)
                    kept.append(
                        Polynomial({basis[i]: c for i, c in enumerate(red) if c})
                    )
                    partial.insert(red)
        return tuple(kept)


class IdealComparison(Record):
    """Equality report between two ideals up to a degree bound.

    ``per_degree`` is empty when the ideals are equal (certified by generator
    containment); otherwise it holds one entry per degree up to the bound,
    and each mismatching entry carries the monomial basis and both HNF
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
    ``compare_pieces`` walks every degree to find the first mismatch and the
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
    """Compare graded pieces degree by degree by their HNF matrices;
    mismatching degrees carry the two HNF matrices and the monomial basis as
    the audit trail."""
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
            if first_mismatch is None:
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
    equal = first_mismatch is None
    return IdealComparison(equal, max_degree, first_mismatch, per_degree)


def equal_up_to(lhs: GradedIdeal, rhs: GradedIdeal, max_degree: int) -> bool:
    return compare_up_to(lhs, rhs, max_degree).equal
