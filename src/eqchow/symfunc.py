"""Torus character decompositions, Chern polynomials of modules, and the
rewriting of symmetric root polynomials.

The weight variables l1..ln are the Chern roots of the dual standard
representation (l_i = -t_i), and c_i always means the i-th Chern class of the
standard representation, so c_k = (-1)^k e_k(l1..ln).  That sign convention is
fixed once, here, and everything downstream relies on it.

``chern_polynomial`` is the one owner of a module's total Chern polynomial
c_H(V) = prod (H + m) over its roots m, in c1..cn.  It never leaves
Z[c1..cn, H]: the power sums of E* follow from c by Newton's identities, those
of Sym2(E*) and Wedge2(E*) by the plethysm (sum_a C(m,a) P_a P_(m-a) +-
2^m P_m)/2, and Newton's identities, with checked exact division, give back
the elementary symmetric functions of the roots (Macdonald, *Symmetric
Functions and Hall Polynomials*, I.2 and I.8).  A det^k twist shifts every
root by k*c1 (c1 = -e1), so it is H -> H + k*c1, and ``e_top`` is
c_H(Wedge2(E*)) at H = k*c1.

The independent route is in l1..ln: ``total_chern_poly`` expands the product
over the roots, and ``symmetric_to_chern`` rewrites it by the classical
leading-term elimination against elementary symmetric polynomials; it works
over the integers with no division, terminates by strict descent in the
monomial order, and checks the symmetry precondition, never assuming it.
That route, and the localization sums built on it, are the oracles the
Chern-ring route is checked against.  Variable names and the monomial layout
follow the conventions stated once in ``eqchow.poly``; ``l_vars`` and
``c_vars`` name the root and Chern variables, and ``HYPERPLANE`` is H, the one
hyperplane variable: the hyperplane class of every projective bundle the
package builds.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

from .poly import (
    Mono,
    ONE,
    Polynomial,
    ZERO,
    const,
    exact_divide,
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


# The hyperplane class H of P(V), the variable of every total Chern polynomial
HYPERPLANE = "H"


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


def _parse_descriptor(descriptor: str) -> tuple[int, str]:
    """(k, base) of a descriptor ``det^k*base``; k is 0 without the prefix."""
    m = _DESCRIPTOR_RE.match(descriptor.replace(" ", ""))
    if m is None:
        raise UnsupportedModule(f"unsupported module descriptor: {descriptor!r}")
    return int(m.group(1) or 0), m.group(2)


def build_roots(n: int, descriptor: str) -> RepRoots:
    """Root multiset of a supported module descriptor.

    Grammar: ``E``, ``E*``, ``Sym2(E*)``, ``Wedge2(E*)``, optionally prefixed
    with ``det^k*``.  A det^k twist adds k*(-l1-...-ln) to every root.  The
    label is ``det^k*base``, or ``base`` when k is 0.
    """
    if n < 2:
        raise UnsupportedModule(f"rank must be at least 2, got {n}")
    k, base = _parse_descriptor(descriptor)
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
    return RepRoots(n, _sorted_roots(roots), base).twisted(k)


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
    if infer_rank(p) > n:
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
        # Leading monomial of a symmetric polynomial has ascending exponents in
        # this order.  An asymmetric input stays nonzero while its leading
        # monomial descends, so it meets a non-ascending one: a complete check.
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
    if rank > n:
        raise NotSymmetric(f"variable l{rank} exceeds rank {n}")
    if n == 0:
        return p
    ls = frozenset(l_vars(n))
    groups: dict[Mono, dict[Mono, int]] = {}
    for m, c in p.terms.items():
        lpart, rest = split_mono(m, ls)
        groups.setdefault(rest, {})[lpart] = c
    result = ZERO
    for rest, lterms in groups.items():
        for component in Polynomial(lterms).homogeneous_components().values():
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


def total_chern_poly(roots: RepRoots) -> Polynomial:
    """prod over the roots m of (H + m), expanded in l-variables."""
    x = var(HYPERPLANE)
    return prod((x + r for r in roots.roots), start=ONE)


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
def chern_polynomial(roots: RepRoots) -> Polynomial:
    """c_H(V) = prod over the roots m of (H + m), in c1..cn, for the module V
    named by ``roots.label``.

    Computed in Z[c1..cn, H] as sum_i e_i(V) H^(d-i).  For E and E* the e_i
    are read off c (e_i(l1..ln) = (-1)^i c_i); for Sym2(E*) and Wedge2(E*)
    the power sums of E* give those of V (``_square_power_sums``), and
    Newton's identities give back the e_i.  A det^k twist is H -> H + k*c1.
    ``total_chern_poly`` with ``symmetric_to_chern`` is the independent route
    through l1..ln.  Raises UnsupportedModule unless ``roots`` is
    ``build_roots(roots.rank, roots.label)``.
    """
    n = roots.rank
    if build_roots(n, roots.label) != roots:
        raise UnsupportedModule(f"roots do not match their label {roots.label!r}")
    k, base = _parse_descriptor(roots.label)
    x = var(HYPERPLANE)
    if k:
        untwisted = chern_polynomial(build_roots(n, base))
        return untwisted.substitute(HYPERPLANE, x + var("c1") * k)
    c = [ONE] + [var(v) for v in c_vars(n)]
    dual = [c[i] * (-1) ** i for i in range(n + 1)]
    if base == "E":
        e = c
    elif base == "E*":
        e = dual
    else:
        sign = 1 if base == "Sym2(E*)" else -1
        P = _power_sums(dual, roots.dimension)
        e = _elementary(_square_power_sums(P, sign))
    d = len(e) - 1
    return sum((e[i] * x ** (d - i) for i in range(d + 1)), start=ZERO)


@lru_cache(maxsize=None)
def e_top(n: int, k: int) -> Polynomial:
    """Top Chern class of det^k (x) Wedge2(E*): c_H(Wedge2(E*)) at H = k*c1."""
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    pairs = chern_polynomial(build_roots(n, "Wedge2(E*)"))
    return pairs.substitute(HYPERPLANE, k * var("c1"))
