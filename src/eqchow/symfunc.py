"""Torus character decompositions and rewriting of symmetric root polynomials.

The weight variables l1..ln are the Chern roots of the dual standard
representation (l_i = -t_i), and c_i always means the i-th Chern class of the
standard representation, so c_k = (-1)^k e_k(l1..ln).  That sign convention is
fixed once, here, and everything downstream relies on it.

``symmetric_to_chern`` implements the classical leading-term elimination
against elementary symmetric polynomials; it works over the integers with no
division and terminates by strict descent in the monomial order.  The symmetry
precondition is always checked, never assumed.  Variable names, their order
and the monomial layout follow the conventions stated once in ``eqchow.poly``;
``l_vars`` and ``c_vars`` name the root and Chern variables.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .poly import (
    Mono,
    ONE,
    Polynomial,
    ZERO,
    make_mono,
    mono_exponents,
    mono_weight,
    poly_sort_key,
    split_mono,
    term_key,
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


def infer_rank(p: Polynomial) -> int:
    """Largest l-index occurring in p (0 if none)."""
    return max((var_index(v, "l") or 0 for v in p.variables()), default=0)


# -- representation roots ----------------------------------------------------------


@dataclass(frozen=True)
class RepRoots:
    """Chern roots of a GL_n-module restricted to the maximal torus.

    ``roots`` is a multiset of degree-1 forms in l1..ln, one per character;
    its cardinality is the module's dimension.
    """

    rank: int
    roots: tuple[Polynomial, ...]
    label: str

    def __post_init__(self):
        for r in self.roots:
            if r.weighted_degree() > 1:
                raise ValueError(f"root is not a linear form: {r}")

    @property
    def dimension(self) -> int:
        return len(self.roots)

    def twisted(self, k: int) -> RepRoots:
        """Tensor by the k-th power of the determinant character."""
        if k == 0:
            return self
        det = -elementary_symmetric(self.rank, 1) * k
        roots = tuple(r + det for r in self.roots)
        return RepRoots(self.rank, _sorted_roots(roots), f"det^{k}*{self.label}")


def _sorted_roots(roots: tuple[Polynomial, ...]) -> tuple[Polynomial, ...]:
    return tuple(sorted(roots, key=poly_sort_key))


_DESCRIPTOR_RE = re.compile(r"\A(?:det\^(-?\d+)\*)?(E\*?|Sym2\(E\*\)|Wedge2\(E\*\))\Z")


def build_roots(n: int, descriptor: str) -> RepRoots:
    """Root multiset of a supported module descriptor.

    Grammar: ``E``, ``E*``, ``Sym2(E*)``, ``Wedge2(E*)``, optionally prefixed
    with ``det^k*``.  A det^k twist adds k*(-l1-...-ln) to every root.
    """
    if n < 2:
        raise UnsupportedModule(f"rank must be at least 2, got {n}")
    m = _DESCRIPTOR_RE.match(descriptor.replace(" ", ""))
    if m is None:
        raise UnsupportedModule(f"unsupported module descriptor: {descriptor!r}")
    k = int(m.group(1)) if m.group(1) else 0
    base = m.group(2)
    ls = [var(v) for v in l_vars(n)]
    if base == "E":
        roots = tuple(-l for l in ls)
    elif base == "E*":
        roots = tuple(ls)
    elif base == "Sym2(E*)":
        roots = tuple(2 * l for l in ls) + tuple(
            ls[i] + ls[j] for i, j in itertools.combinations(range(n), 2)
        )
    else:  # Wedge2(E*)
        roots = tuple(ls[i] + ls[j] for i, j in itertools.combinations(range(n), 2))
    return RepRoots(n, _sorted_roots(roots), descriptor.replace(" ", "")).twisted(k)


# -- symmetry ---------------------------------------------------------------------


def is_symmetric(p: Polynomial, n: int | None = None) -> bool:
    """True iff p (a polynomial in l1..ln only) is S_n-invariant.

    Checked on the adjacent transpositions, which generate the full symmetric
    group.  Raises ValueError if p involves anything but l-variables.
    """
    for v in p.variables():
        if var_index(v, "l") is None:
            raise ValueError(f"is_symmetric expects only l-variables, found {v}")
    if n is None:
        n = infer_rank(p)
    if n > 0 and infer_rank(p) > n:
        return False
    ls = l_vars(n)
    for a, b in zip(ls, ls[1:]):
        if p.rename({a: b, b: a}) != p:
            return False
    return True


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


def _eliminate_symmetric(q: Polynomial, n: int) -> Polynomial:
    """Rewrite a symmetric polynomial in l1..ln as a polynomial in c1..cn.

    Repeatedly cancels the leading monomial against the elementary-symmetric
    product with the same leading monomial; the leading monomial strictly
    decreases, so this terminates.  If it fails to decrease (the arithmetic
    is broken), ArithmeticError is raised instead of looping.
    """
    out: dict[Mono, int] = {}
    ls, cs = l_vars(n), c_vars(n)
    previous = None
    while q:
        mono, coeff = q.leading_item()
        key = term_key(mono)
        if previous is not None and key >= previous:
            raise ArithmeticError(f"leading term {mono} did not cancel")
        previous = key
        evec = mono_exponents(mono, ls)
        # Leading monomial of a symmetric polynomial has ascending exponents
        # in this order; descending anywhere means the input was asymmetric.
        if any(evec[j] > evec[j + 1] for j in range(n - 1)):
            raise NotSymmetric(f"not symmetric in l1..l{n}: leading term {mono}")
        powers = tuple(
            evec[n - i] - (evec[n - i - 1] if i < n else 0) for i in range(1, n + 1)
        )
        # prod e_i^k_i is (-1)^(sum i*k_i) prod c_i^k_i, the sign of its degree
        cmono = make_mono(zip(cs, powers))
        out[cmono] = coeff * (-1) ** mono_weight(cmono)
        q = q - _e_product(n, powers) * coeff
    return Polynomial(out)


def symmetric_to_chern(p: Polynomial, n: int | None = None) -> Polynomial:
    """Express a polynomial symmetric in l1..ln via Chern classes c1..cn.

    Non-l variables (H, K, ...) pass through: each coefficient with respect to
    them must itself be symmetric.  Raises NotSymmetric otherwise.
    """
    rank = infer_rank(p)
    if n is None:
        n = rank
    if n == 0:
        return p
    if rank > n:
        raise NotSymmetric(f"variable l{rank} exceeds rank {n}")
    ls = frozenset(l_vars(n))
    groups: dict[Mono, dict[Mono, int]] = {}
    for m, c in p.terms.items():
        lpart, rest = split_mono(m, ls)
        groups.setdefault(rest, {})[lpart] = c
    result = ZERO
    for rest, lterms in groups.items():
        lpoly = Polynomial(lterms)
        if not is_symmetric(lpoly, n):
            raise NotSymmetric(
                f"coefficient of {rest or '1'} is not symmetric in l1..l{n}"
            )
        for component in lpoly.homogeneous_components().values():
            result = result + _eliminate_symmetric(component, n).mono_shift(rest)
    return result


def chern_to_roots(p: Polynomial, n: int) -> Polynomial:
    """Expand c_i as (-1)^i e_i(l1..ln); inverse of symmetric_to_chern."""
    for v in p.variables():
        i = var_index(v, "c")
        if i is not None:
            p = p.substitute(v, elementary_symmetric(n, i) * (-1) ** i)
    return p


# -- total Chern polynomials ---------------------------------------------------------


def total_chern_poly(roots: RepRoots | tuple[Polynomial, ...], variable: str) -> Polynomial:
    """prod over the roots m of (variable + m), expanded in l-variables."""
    if isinstance(roots, RepRoots):
        if variable in l_vars(roots.rank):
            raise ValueError(f"{variable} clashes with a root variable")
        roots = roots.roots
    x = var(variable)
    return prod((x + r for r in roots), start=ONE)


@lru_cache(maxsize=None)
def e_top(n: int, k: int) -> Polynomial:
    """Top Chern class of det^k (x) Wedge2(E*), as a polynomial in c1..cn."""
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    roots = build_roots(n, f"det^{k}*Wedge2(E*)" if k else "Wedge2(E*)")
    return symmetric_to_chern(prod(roots.roots, start=ONE), n)
