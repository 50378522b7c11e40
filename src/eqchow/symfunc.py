"""Modules of GL_n, their Chern polynomials, and the rewriting of symmetric
root polynomials.

The weight variables l1..ln are the Chern roots of the dual standard
representation (l_i = -t_i), and c_i always means the i-th Chern class of the
standard representation, so c_k = (-1)^k e_k(l1..ln).  That sign convention is
fixed once, here, and everything downstream relies on it.

A module is one value, ``RepRoots(rank, base, k)``: det^k (x) base for a base
in ``BASES`` (E, E*, Sym2(E*), Wedge2(E*)).  Its torus characters (``roots``)
and its label ``det^k*base`` are derived from those three fields, and
``build_roots`` is the one parser of labels.

``chern_polynomial`` is the one owner of a module's total Chern polynomial
c_H(V) = prod (H + m) over its roots m, in c1..cn.  It never leaves
Z[c1..cn, H]: with x_i = H + 2*l_i, 2^C(n,2) c_H(Wedge2(E*)) is
prod_(i<j) (x_i + x_j), the staircase Schur polynomial of the x_i, one dual
Jacobi-Trudi determinant (Macdonald, *Symmetric Functions and Hall
Polynomials*, I.3), and c_H(Sym2(E*)) is c_H(Wedge2(E*)) prod_i x_i; each
result is checked against the integer product over its roots at seeded
points.  A det^k twist shifts every root by k*c1 (c1 = -e1), so it is
H -> H + k*c1, and ``e_top`` is c_H(Wedge2(E*)) at H = k*c1, the torsor
substitution ``torsor_substitute``.

The independent route is in l1..ln: ``total_chern_poly`` expands the product
over the roots, and ``symmetric_to_chern`` rewrites it by the classical
leading-term elimination against elementary symmetric polynomials; it works
over the integers with no division, terminates by strict descent in a
monomial order (any gives the same rewrite; it uses the packed ints of
``eqchow.poly``, on exact division's remainder heap), and checks the symmetry
precondition, never assuming it.  It runs once over the whole input, all
degrees and non-l parts together: in a monomial order the leading monomial
leads the coefficient of its own non-l part, so no grouping is needed.
That route, and the localization sums built on it, are the oracles the
Chern-ring route is checked against.  Variable names and the monomial layout
follow the conventions stated once in ``eqchow.poly``; ``l_vars`` and
``c_vars`` name the root and Chern variables, ``chern_classes`` lists
1, c1, ..., cn, and ``HYPERPLANE`` is H, the one hyperplane variable: the
hyperplane class of every projective bundle the package builds.
"""

from __future__ import annotations

import heapq
import itertools
import re
from functools import lru_cache
from math import comb, prod

from .poly import (
    Mono,
    ONE,
    Polynomial,
    Record,
    ZERO,
    _check_guards,
    _subtract_shifted,
    exact_divide,
    lex_priority,
    make_mono,
    mono_exponents,
    mono_str,
    poly_sort_key,
    var,
    var_index,
)


class NotSymmetric(ValueError):
    """Input polynomial is not invariant under permutations of l1..ln."""


class UnsupportedModule(ValueError):
    """Module descriptor outside the supported list."""


def l_vars(n: int) -> tuple[str, ...]:
    """The root variables l1..ln."""
    return tuple(f"l{i}" for i in range(1, n + 1))


def c_vars(n: int) -> tuple[str, ...]:
    """The Chern variables c1..cn."""
    return tuple(f"c{i}" for i in range(1, n + 1))


def chern_classes(n: int) -> list[Polynomial]:
    """[c0, c1, ..., cn] with c0 = 1."""
    return [ONE] + [var(v) for v in c_vars(n)]


# The hyperplane class H of P(V), the variable of every total Chern polynomial
HYPERPLANE = "H"


def torsor_substitute(p: Polynomial, k: int) -> Polynomial:
    """The torsor substitution H -> k*c1."""
    return p.substitute(HYPERPLANE, k * var("c1"))


def infer_rank(p: Polynomial) -> int:
    """Largest l-index occurring in p (0 if none)."""
    return max((var_index(v, "l") or 0 for v in p.variables()), default=0)


# -- modules ------------------------------------------------------------------------


# The modules det^k (x) base that ``RepRoots`` and ``chern_polynomial`` support
BASES = ("E", "E*", "Sym2(E*)", "Wedge2(E*)")


class RepRoots(Record):
    """The GL_n-module det^k (x) base, for a base in ``BASES`` and n >= 2.

    The module is its three fields; everything else is derived from them.
    ``roots`` is its multiset of Chern roots, the torus characters as degree-1
    forms in l1..ln (sorted by ``poly_sort_key``); a det^k twist adds
    k*(-l1-...-ln) to every root.  Equal modules share one root tuple.
    ``label`` is ``det^k*base``, or ``base`` when k is 0, and ``build_roots``
    reads it back.
    """

    __slots__ = ("rank", "base", "k")

    def __init__(self, rank: int, base: str, k: int = 0):
        if rank < 2:
            raise UnsupportedModule(f"rank must be at least 2, got {rank}")
        if base not in BASES:
            raise UnsupportedModule(f"unsupported module: {base!r}")
        Record.__init__(self, rank, base, k)

    @property
    def roots(self) -> tuple[Polynomial, ...]:
        return _module_roots(self)

    @property
    def label(self) -> str:
        return f"det^{self.k}*{self.base}" if self.k else self.base

    @property
    def dimension(self) -> int:
        return len(self.roots)


@lru_cache(maxsize=None)
def _module_roots(module: RepRoots) -> tuple[Polynomial, ...]:
    ls = [var(v) for v in l_vars(module.rank)]
    pairs = [a + b for a, b in itertools.combinations(ls, 2)]
    roots = {
        "E": [-l for l in ls],
        "E*": ls,
        "Sym2(E*)": [2 * l for l in ls] + pairs,
        "Wedge2(E*)": pairs,
    }[module.base]
    det = -elementary_symmetric(module.rank, 1) * module.k
    return tuple(sorted((r + det for r in roots), key=poly_sort_key))


_DESCRIPTOR_RE = re.compile(
    rf"\A(?:det\^(-?\d+)\*)?({'|'.join(map(re.escape, BASES))})\Z"
)


def build_roots(n: int, descriptor: str) -> RepRoots:
    """The module named by a descriptor: one of ``BASES``, optionally prefixed
    with ``det^k*``; spaces are ignored.  The one parser of module labels."""
    m = _DESCRIPTOR_RE.match(descriptor.replace(" ", ""))
    if m is None:
        raise UnsupportedModule(f"unsupported module descriptor: {descriptor!r}")
    return RepRoots(n, m.group(2), int(m.group(1) or 0))


# -- symmetry ---------------------------------------------------------------------


def is_symmetric(p: Polynomial, n: int) -> bool:
    """True iff p (a polynomial in l1..ln only) is S_n-invariant.

    Checked on the transposition (l1 l2) and the n-cycle l1 -> l2 -> ... ->
    ln -> l1, which generate the full symmetric group: two renames at any n.
    Raises ValueError if p involves anything but l-variables.
    """
    for v in p.variables():
        if var_index(v, "l") is None:
            raise ValueError(f"is_symmetric expects only l-variables, found {v}")
    if infer_rank(p) > n:
        return False
    if n < 2:
        return True
    ls = l_vars(n)
    swap = {ls[0]: ls[1], ls[1]: ls[0]}
    cycle = dict(zip(ls, ls[1:] + ls[:1]))
    return p.rename(swap) == p and p.rename(cycle) == p


# -- elementary symmetric machinery -------------------------------------------------


@lru_cache(maxsize=None)
def elementary_symmetric(n: int, i: int) -> Polynomial:
    """e_i(l1..ln), expanded."""
    if i == 0:
        return ONE
    if i > n:
        return ZERO
    return Polynomial(
        {
            make_mono((v, 1) for v in combo): 1
            for combo in itertools.combinations(l_vars(n), i)
        }
    )


@lru_cache(maxsize=None)
def _e_product(n: int, powers: tuple[int, ...]) -> Polynomial:
    """Expansion of prod_i e_i(l1..ln)^powers[i-1], built up one factor at a time."""
    for i in range(n, 0, -1):
        if powers[i - 1]:
            lower = list(powers)
            lower[i - 1] -= 1
            return _e_product(n, tuple(lower)) * elementary_symmetric(n, i)
    return ONE


def symmetric_to_chern(p: Polynomial, n: int) -> Polynomial:
    """Express a polynomial symmetric in l1..ln via Chern classes c1..cn.

    Non-l variables (H, K, c, ...) pass through: each coefficient with respect
    to them must itself be symmetric.  Raises NotSymmetric otherwise.

    Cancels the leading monomial, the largest packed int (see ``lex_priority``),
    against its coefficient times its non-l part times the elementary symmetric
    product with its l-part as leading monomial, over the whole input at once:
    the order is a monomial order, so that monomial leads the coefficient of its
    non-l part, and no grouping is needed.  It strictly decreases; if it does
    not (the arithmetic is broken), ArithmeticError is raised, never a loop.
    """
    rank = infer_rank(p)
    if rank > n:
        raise NotSymmetric(f"variable l{rank} exceeds rank {n}")
    ls, cs = lex_priority(l_vars(n)), c_vars(n)
    rem = dict(p.terms)
    heap = [-m for m in rem]  # negated, so heapq pops the largest monomial
    heapq.heapify(heap)
    out: dict[Mono, int] = {}
    previous = None
    while heap:
        mono = -heapq.heappop(heap)
        coeff = rem.get(mono, 0)
        if not coeff:
            continue
        if previous is not None and mono >= previous:
            raise ArithmeticError(f"leading term {mono_str(mono)} did not cancel")
        previous = mono
        evec = mono_exponents(mono, ls)
        # Leading monomial of a symmetric coefficient has non-increasing exponents
        # in the priority order.  An asymmetric one stays nonzero while its
        # leading monomial descends, so it meets one that has not: complete.
        if any(evec[j] < evec[j + 1] for j in range(n - 1)):
            raise NotSymmetric(
                f"not symmetric in l1..l{n}: leading term {mono_str(mono)}"
            )
        powers = tuple(evec[i] - (evec[i + 1] if i + 1 < n else 0) for i in range(n))
        rest = mono - make_mono(zip(ls, evec))
        # prod e_i^k_i is (-1)^(sum i*k_i) prod c_i^k_i, the sign of its degree
        key = make_mono(zip(cs, powers)) + rest
        _check_guards(key)
        out[key] = out.get(key, 0) + coeff * (-1) ** sum(evec)
        _subtract_shifted(rem, heap, rest, coeff, _e_product(n, powers).terms.items())
        if mono in rem:
            raise ArithmeticError(f"leading term {mono_str(mono)} did not cancel")
    return Polynomial(out)


def chern_to_roots(p: Polynomial, n: int) -> Polynomial:
    """Expand c_i as (-1)^i e_i(l1..ln); inverse of symmetric_to_chern."""
    for v in p.variables():
        i = var_index(v, "c")
        if i is not None:
            p = p.substitute(v, elementary_symmetric(n, i) * (-1) ** i)
    return p


# -- total Chern polynomials ---------------------------------------------------------


def total_chern_poly(module: RepRoots) -> Polynomial:
    """prod over the roots m of the module of (H + m), expanded in l-variables."""
    x = var(HYPERPLANE)
    return prod((x + r for r in module.roots), start=ONE)


def elementary_of_shifted(n: int, scale: int) -> list[Polynomial]:
    """e_0..e_n of the n shifted roots H + scale*l_i, in c1..cn and H:
    e_k = sum_j C(n-j, k-j) (-scale)^j c_j H^(k-j), as c_j = (-1)^j e_j(l)."""
    x = var(HYPERPLANE)
    scaled = [cj * (-scale) ** j for j, cj in enumerate(chern_classes(n))]
    return [
        sum(
            (scaled[j] * comb(n - j, k - j) * x ** (k - j) for j in range(k + 1)),
            start=ZERO,
        )
        for k in range(n + 1)
    ]


def _staircase(e: list[Polynomial]) -> Polynomial:
    """prod_(i<j) (x_i + x_j) over the roots x with elementary symmetric
    functions e = [1, e_1, ..., e_n]: the staircase Schur polynomial, by the
    dual Jacobi-Trudi identity (Macdonald I.3) det(e_(n-2i+j)) of size n-1,
    expanded along its rows with each minor memoized by its column subset."""
    n = len(e) - 1

    @lru_cache(maxsize=None)
    def minor(cols: tuple[int, ...]) -> Polynomial:
        row = n - 1 - len(cols)  # 0-based, so entry (row, col) is e_(n-2*row+col-1)
        total = ZERO if cols else ONE
        for pos, col in enumerate(cols):
            k = n - 2 * row + col - 1
            if 0 <= k <= n:
                total = total + e[k] * minor(cols[:pos] + cols[pos + 1 :]) * (-1) ** pos
        return total

    return minor(tuple(range(n - 1)))


def _check_at_roots(module: RepRoots, p: Polynomial) -> None:
    """Raise ArithmeticError unless p at c_i = (-1)^i e_i(l), H = h equals the
    integer prod (h + m(l)) over the module's roots m at two points from a
    seeded generator mod the prime 2^61 - 1; a wrong p of degree d passes one
    with probability at most d / 2^61 (Schwartz 1980; Zippel 1979)."""
    n, state = module.rank, 20060601
    for _ in range(2):
        values = [
            state := state * 437799614237992725 % (2**61 - 1) for _ in range(n + 1)
        ]
        lpoint, h = dict(zip(l_vars(n), values)), values[n]
        point = {HYPERPLANE: h}
        for i in range(1, n + 1):
            point[f"c{i}"] = (-1) ** i * elementary_symmetric(n, i).evaluate(lpoint)
        if p.evaluate(point) != prod(h + m.evaluate(lpoint) for m in module.roots):
            raise ArithmeticError(
                f"c_H({module.label}) disagrees with its roots at {lpoint}, H = {h}"
            )


@lru_cache(maxsize=None)
def chern_polynomial(module: RepRoots) -> Polynomial:
    """c_H(V) = prod over the roots m of (H + m), in c1..cn, for the module V.

    From the e_k of the shifted roots x_i = H + s*l_i (``elementary_of_shifted``):
    c_H(E*) and c_H(E) are e_n(x) at s = 1 and -1; at s = 2, c_H(Wedge2(E*))
    is the staircase (``_staircase``) divided by 2^C(n,2), and c_H(Sym2(E*))
    is that times e_n(x).  A det^k twist is H -> H + k*c1.  Each result passes
    ``_check_at_roots`` before it is returned.
    """
    x, n = var(HYPERPLANE), module.rank
    if module.k:
        untwisted = chern_polynomial(module.replace(k=0))
        p = untwisted.substitute(HYPERPLANE, x + var("c1") * module.k)
    elif module.base in ("E", "E*"):
        p = elementary_of_shifted(n, 1 if module.base == "E*" else -1)[n]
    else:
        e = elementary_of_shifted(n, 2)
        p = exact_divide(_staircase(e), 2 ** comb(n, 2))
        if module.base == "Sym2(E*)":
            p = p * e[n]
    _check_at_roots(module, p)
    return p


@lru_cache(maxsize=None)
def e_top(n: int, k: int) -> Polynomial:
    """Top Chern class of det^k (x) Wedge2(E*): c_H(Wedge2(E*)) at H = k*c1."""
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    return torsor_substitute(chern_polynomial(RepRoots(n, "Wedge2(E*)")), k)
