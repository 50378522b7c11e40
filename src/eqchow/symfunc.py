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
Z[c1..cn, H]: the power sums of E* follow from c by Newton's identities, those
of Sym2(E*) and Wedge2(E*) by the plethysm (sum_a C(m,a) P_a P_(m-a) +-
2^m P_m)/2, and Newton's identities, with checked exact division, give back
the elementary symmetric functions of the roots (Macdonald, *Symmetric
Functions and Hall Polynomials*, I.2 and I.8).  A det^k twist shifts every
root by k*c1 (c1 = -e1), so it is H -> H + k*c1, and ``e_top`` is
c_H(Wedge2(E*)) at H = k*c1, the torsor substitution ``torsor_substitute``.

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
    const,
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
    if module.base == "E":
        roots = [-l for l in ls]
    elif module.base == "E*":
        roots = ls
    elif module.base == "Sym2(E*)":
        roots = [2 * l for l in ls] + pairs
    else:  # Wedge2(E*)
        roots = pairs
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


def _power_sums(e: list[Polynomial], top: int) -> list[Polynomial]:
    """p_0..p_top of the roots whose elementary symmetric functions are
    ``e`` (e[0] = 1, one more entry than roots), by Newton's identities."""
    p = [const(len(e) - 1)]
    for m in range(1, top + 1):
        s = e[m] * ((-1) ** (m - 1) * m) if m < len(e) else ZERO
        for j in range(1, min(m, len(e))):
            s = s + e[j] * p[m - j] * (-1) ** (j - 1)
        p.append(s)
    return p


def _square_power_sums(P: list[Polynomial], sign: int) -> list[Polynomial]:
    """p_0..p_d of Sym2 (sign 1) or Wedge2 (sign -1) of the roots x_i with
    power sums P = P_0..P_d, d the dimension of the square:
    p_m = (sum_a C(m,a) P_a P_(m-a) + sign 2^m P_m)/2, the sum over ordered
    pairs of (x_i + x_j)^m with the diagonal (2 x_i)^m added or taken away,
    halved by a checked exact division."""
    p = []
    for m in range(len(P)):
        s = P[m] * (sign * 2**m)
        for a in range(m // 2 + 1):  # the terms a and m - a are equal
            s = s + P[a] * P[m - a] * (comb(m, a) * (1 if 2 * a == m else 2))
        p.append(exact_divide(s, 2))
    return p


def _elementary(p: list[Polynomial]) -> list[Polynomial]:
    """e_0..e_d of d roots from their power sums p_0..p_d, by Newton's
    identities; each division by i is a checked exact division."""
    e = [ONE]
    for i in range(1, len(p)):
        s = ZERO
        for j in range(1, i + 1):
            s = s + e[i - j] * p[j] * (-1) ** (j - 1)
        e.append(exact_divide(s, i))
    return e


@lru_cache(maxsize=None)
def chern_polynomial(module: RepRoots) -> Polynomial:
    """c_H(V) = prod over the roots m of (H + m), in c1..cn, for the module V.

    Computed in Z[c1..cn, H] as sum_i e_i(V) H^(d-i).  For E and E* the e_i
    are read off c (e_i(l1..ln) = (-1)^i c_i); for Sym2(E*) and Wedge2(E*)
    the power sums of E* give those of V (``_square_power_sums``), and
    Newton's identities give back the e_i.  A det^k twist is H -> H + k*c1 on
    the untwisted module's polynomial.  ``total_chern_poly`` with
    ``symmetric_to_chern`` is the independent route through l1..ln.
    """
    x = var(HYPERPLANE)
    if module.k:
        untwisted = chern_polynomial(module.replace(k=0))
        return untwisted.substitute(HYPERPLANE, x + var("c1") * module.k)
    c = chern_classes(module.rank)
    dual = [ci * (-1) ** i for i, ci in enumerate(c)]
    if module.base == "E":
        e = c
    elif module.base == "E*":
        e = dual
    else:
        sign = 1 if module.base == "Sym2(E*)" else -1
        P = _power_sums(dual, module.dimension)
        e = _elementary(_square_power_sums(P, sign))
    d = len(e) - 1
    return sum((e[i] * x ** (d - i) for i in range(d + 1)), start=ZERO)


@lru_cache(maxsize=None)
def e_top(n: int, k: int) -> Polynomial:
    """Top Chern class of det^k (x) Wedge2(E*): c_H(Wedge2(E*)) at H = k*c1."""
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    return torsor_substitute(chern_polynomial(RepRoots(n, "Wedge2(E*)")), k)
