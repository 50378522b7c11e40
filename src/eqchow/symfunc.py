"""Torus character decompositions and rewriting of symmetric root polynomials.

The weight variables l1..ln are the Chern roots of the dual standard
representation (l_i = -t_i), and c_i always means the i-th Chern class of the
standard representation, so c_k = (-1)^k e_k(l1..ln).  That sign convention is
fixed once, here, and everything downstream relies on it.

``symmetric_to_chern`` implements the classical leading-term elimination
against elementary symmetric polynomials; it works over the integers with no
division and terminates by strict descent in the monomial order.  The symmetry
precondition is always checked, never assumed.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache

from .poly import (
    Mono,
    ONE,
    Polynomial,
    ZERO,
    mono_mul,
    poly_sort_key,
    term_key,
    var,
)


class NotSymmetric(ValueError):
    """Input polynomial is not invariant under permutations of l1..ln."""


class UnsupportedModule(ValueError):
    """Module descriptor outside the supported list."""


def l_vars(n: int) -> list[str]:
    return [f"l{i}" for i in range(1, n + 1)]


def _l_index(name: str) -> int | None:
    m = re.fullmatch(r"l(\d+)", name)
    return int(m.group(1)) if m else None


def infer_rank(p: Polynomial) -> int:
    """Largest l-index occurring in p (0 if none)."""
    best = 0
    for v in p.variables():
        i = _l_index(v)
        if i is not None and i > best:
            best = i
    return best


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
        det = minus_e1(self.rank) * k
        roots = tuple(r + det for r in self.roots)
        return RepRoots(self.rank, _sorted_roots(roots), f"det^{k}*{self.label}")


def _sorted_roots(roots: tuple[Polynomial, ...]) -> tuple[Polynomial, ...]:
    return tuple(sorted(roots, key=poly_sort_key))


def minus_e1(n: int) -> Polynomial:
    """-(l1+...+ln), the first Chern class of the standard rep in root form."""
    return Polynomial({((f"l{i}", 1),): -1 for i in range(1, n + 1)})


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
        if _l_index(v) is None:
            raise ValueError(f"is_symmetric expects only l-variables, found {v}")
    if n is None:
        n = infer_rank(p)
    if n > 0 and infer_rank(p) > n:
        return False
    for i in range(1, n):
        swap = {f"l{i}": f"l{i + 1}", f"l{i + 1}": f"l{i}"}
        if p.rename(swap) != p:
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
    terms = {}
    for combo in itertools.combinations(range(1, n + 1), i):
        mono = tuple((f"l{j}", 1) for j in combo)
        terms[mono] = 1
    return Polynomial(terms)


@lru_cache(maxsize=None)
def _e_product(n: int, powers: tuple[int, ...]) -> Polynomial:
    """Expansion of prod_i e_i(l1..ln)^powers[i-1], built up one factor at a time."""
    for i in range(n, 0, -1):
        if powers[i - 1]:
            lower = list(powers)
            lower[i - 1] -= 1
            return _e_product(n, tuple(lower)) * elementary_symmetric(n, i)
    return ONE


def _mono_to_c(powers: tuple[int, ...]) -> tuple[Mono, int]:
    """Map prod e_i^{k_i} to its Chern monomial with the sign (-1)^{sum i*k_i}."""
    mono = tuple((f"c{i}", k) for i, k in enumerate(powers, start=1) if k)
    degree = sum(i * k for i, k in enumerate(powers, start=1))
    return mono, (-1) ** degree


def _eliminate_symmetric(q: Polynomial, n: int) -> Polynomial:
    """Rewrite a symmetric polynomial in l1..ln as a polynomial in c1..cn.

    Repeatedly cancels the leading monomial against the elementary-symmetric
    product with the same leading monomial; the leading monomial strictly
    decreases, so this terminates.  If it fails to decrease (the arithmetic
    is broken), ArithmeticError is raised instead of looping.
    """
    out: dict[Mono, int] = {}
    previous = None
    while q:
        mono, coeff = q.leading_item()
        key = term_key(mono)
        if previous is not None and key >= previous:
            raise ArithmeticError(f"leading term {mono} did not cancel")
        previous = key
        exps = {v: e for v, e in mono}
        evec = [exps.get(f"l{j}", 0) for j in range(1, n + 1)]
        # Leading monomial of a symmetric polynomial has ascending exponents
        # in this order; descending anywhere means the input was asymmetric.
        if any(evec[j] > evec[j + 1] for j in range(n - 1)):
            raise NotSymmetric(f"not symmetric in l1..l{n}: leading term {mono}")
        powers = tuple(
            evec[n - i] - (evec[n - i - 1] if i < n else 0) for i in range(1, n + 1)
        )
        cmono, sign = _mono_to_c(powers)
        out[cmono] = coeff * sign
        q = q - _e_product(n, powers) * coeff
    return Polynomial(out)


def symmetric_to_chern(p: Polynomial, n: int | None = None) -> Polynomial:
    """Express a polynomial symmetric in l1..ln via Chern classes c1..cn.

    Non-l variables (H, K, ...) pass through: each coefficient with respect to
    them must itself be symmetric.  Raises NotSymmetric otherwise.
    """
    if n is None:
        n = infer_rank(p)
    if n == 0:
        return p
    groups: dict[Mono, dict[Mono, int]] = {}
    for m, c in p.terms.items():
        lpart = []
        rest = []
        for v, e in m:
            i = _l_index(v)
            if i is None:
                rest.append((v, e))
            elif i > n:
                raise NotSymmetric(f"variable {v} exceeds rank {n}")
            else:
                lpart.append((v, e))
        groups.setdefault(tuple(rest), {})[tuple(lpart)] = c
    result: dict[Mono, int] = {}
    for rest, lterms in groups.items():
        lpoly = Polynomial(lterms)
        if not is_symmetric(lpoly, n):
            raise NotSymmetric(
                f"coefficient of {rest or '1'} is not symmetric in l1..l{n}"
            )
        for component in lpoly.homogeneous_components().values():
            converted = _eliminate_symmetric(component, n)
            for m, c in converted.terms.items():
                key = mono_mul(m, rest)
                s = result.get(key, 0) + c
                if s:
                    result[key] = s
                else:
                    del result[key]
    return Polynomial(result)


def chern_to_roots(p: Polynomial, n: int) -> Polynomial:
    """Expand c_i as (-1)^i e_i(l1..ln); inverse of symmetric_to_chern."""
    result = ZERO
    for m, c in p.terms.items():
        factor = Polynomial.constant(c)
        for v, e in m:
            cm = re.fullmatch(r"c(\d+)", v)
            if cm:
                i = int(cm.group(1))
                factor = factor * (elementary_symmetric(n, i) * (-1) ** i) ** e
            else:
                factor = factor * var(v) ** e
        result = result + factor
    return result


# -- total Chern polynomials ---------------------------------------------------------


def total_chern_poly(roots: RepRoots | tuple[Polynomial, ...], variable: str) -> Polynomial:
    """prod over the roots m of (variable + m), expanded in l-variables."""
    if isinstance(roots, RepRoots):
        if variable in l_vars(roots.rank):
            raise ValueError(f"{variable} clashes with a root variable")
        roots = roots.roots
    result = ONE
    x = var(variable)
    for r in roots:
        result = result * (x + r)
    return result


@lru_cache(maxsize=None)
def e_top(n: int, k: int) -> Polynomial:
    """Top Chern class of det^k (x) Wedge2(E*), as a polynomial in c1..cn."""
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    roots = build_roots(n, f"det^{k}*Wedge2(E*)" if k else "Wedge2(E*)")
    product = ONE
    for r in roots.roots:
        product = product * r
    return symmetric_to_chern(product, n)
