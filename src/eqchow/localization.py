"""Torus fixed points on P(V) and the pushforward along the squaring embedding
P(E*) -> P(Sym2 E*).

A fixed point of P(V) is an index j into a tuple of pairwise distinct roots
of V (``RepRoots.roots``): the hyperplane class restricts to -roots[j] there,
``tangent_weights`` gives {m_i - m_j : i != j} and ``fundamental_class`` the
point's class.  ``veronese_point_map`` matches the fixed points of P(E*) with
those of P(Sym2 E*).  The pushforward of K^r along the squaring map is computed
by an explicit localization sum over the source fixed points, with denominators
cleared by ``sum_fractions``; the interpolation shortcut 2^(n-1-r) H^r R(H) is
implemented independently as ``closed_form_pushforward`` and their agreement is
a test, never an assumption.  Both check n and r with ``symfunc.require_rank``.

The sum is evaluated in the l-variable ring and converted to Chern classes only
after the denominators clear; the intermediate sum is not expressible in the
c-variables, symmetry only emerges after summation.  Every class here is a
polynomial in H (``symfunc.HYPERPLANE``), the one hyperplane variable.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from math import prod

from .poly import (
    ONE,
    Polynomial,
    StructuredFraction,
    sum_fractions,
    var,
)
from .symfunc import (
    HYPERPLANE,
    NotSymmetric,
    RepRoots,
    chern_polynomial,
    require_rank,
    symmetric_to_chern,
    total_chern_poly,
)


class RepeatedRoots(ValueError):
    """Two roots coincide, so localization denominators would vanish."""


class InternalInconsistency(RuntimeError):
    """A localization sum failed to clear denominators or to be symmetric;
    this indicates an implementation bug, not a user error."""


def _check_point(roots: tuple[Polynomial, ...], j: int) -> None:
    """Require pairwise distinct roots and a fixed point j among them."""
    for a, b in itertools.combinations(range(len(roots)), 2):
        if roots[a] == roots[b]:
            raise RepeatedRoots(f"roots {a} and {b} coincide: {roots[a]}")
    if not 0 <= j < len(roots):
        raise IndexError(f"fixed point index {j} out of range")


def tangent_weights(roots: tuple[Polynomial, ...], j: int) -> tuple[Polynomial, ...]:
    """The tangent weights m_i - m_j of P(V) at fixed point j, for i != j."""
    _check_point(roots, j)
    return tuple(m - roots[j] for i, m in enumerate(roots) if i != j)


def fundamental_class(roots: tuple[Polynomial, ...], j: int) -> Polynomial:
    """Equivariant class of fixed point j as a complete intersection of the
    coordinate hyperplanes: prod over the other roots m of (H + m)."""
    _check_point(roots, j)
    x = var(HYPERPLANE)
    return prod((x + m for i, m in enumerate(roots) if i != j), start=ONE)


@lru_cache(maxsize=None)
def veronese_point_map(n: int) -> tuple[int, ...]:
    """The squaring embedding on fixed points: source point j of P(E*), with
    root l_j, maps to the point of P(Sym2 E*) whose root is 2*l_j."""
    target = RepRoots(n, "Sym2(E*)").roots
    mapping = tuple(target.index(2 * m) for m in RepRoots(n, "E*").roots)
    if len(set(mapping)) != n:
        raise InternalInconsistency("squared roots are not pairwise distinct")
    return mapping


@lru_cache(maxsize=None)
def _wedge_total_chern(n: int) -> Polynomial:
    """prod over pairs i<j of (H + l_i + l_j), in l-variables."""
    return total_chern_poly(RepRoots(n, "Wedge2(E*)"))


def _localize(n: int, r: int, point_class, factor: Polynomial = ONE) -> Polynomial:
    """The localization sum for the pushforward of K^r: over the source fixed
    points j, point_class(j) (-l_j)^r / (tangent weights at j).  The sum must
    clear to a polynomial, which times ``factor`` is rewritten into Chern
    classes; a kept denominator or an asymmetric sum is an
    InternalInconsistency."""
    roots = RepRoots(n, "E*").roots
    total = sum_fractions(
        StructuredFraction.make(
            point_class(j) * (-roots[j]) ** r, tangent_weights(roots, j)
        )
        for j in range(n)
    )
    if total.denominator:
        raise InternalInconsistency(f"localization sum kept a denominator: {total}")
    try:
        return symmetric_to_chern(total.numerator * factor, n)
    except NotSymmetric as exc:
        raise InternalInconsistency(f"localization sum is not symmetric: {exc}")


@lru_cache(maxsize=None)
def veronese_pushforward(n: int, r: int) -> Polynomial:
    """Pushforward of K^r to P(Sym2 E*), by explicit localization.

    Sums over the source fixed points P_j the class restriction (-l_j)^r times
    the target point class divided by the tangent weights at P_j.  The target
    point class factors as (prod_{k != j} (H + 2 l_k)) * (prod_{i<j} (H + l_i
    + l_j)); the first factor is the class of point j over the doubled roots,
    the second is independent of j and is multiplied back in after the sum,
    which keeps the summands small (the factorization is itself asserted by
    the test suite against ``fundamental_class``).
    """
    require_rank(n, r=r)
    doubled = tuple(2 * m for m in RepRoots(n, "E*").roots)
    return _localize(n, r, partial(fundamental_class, doubled), _wedge_total_chern(n))


@lru_cache(maxsize=None)
def closed_form_pushforward(n: int, r: int) -> Polynomial:
    """Interpolation shortcut: 2^(n-1-r) * H^r * c_H(Wedge2(E*)), bypassing
    the localization sum entirely."""
    require_rank(n, r=r)
    pairs = chern_polynomial(RepRoots(n, "Wedge2(E*)"))
    return 2 ** (n - 1 - r) * var(HYPERPLANE) ** r * pairs
