"""Torus fixed points on P(V) and the pushforward along the squaring embedding
P(E*) -> P(Sym2 E*).

Each root m_j of V gives one fixed point of P(V); the hyperplane class
restricts to -m_j there and the tangent weights are {m_i - m_j : i != j}.
The pushforward of K^r along the squaring map is computed by an explicit
localization sum over the source fixed points, with denominators cleared by
``sum_fractions``; the interpolation shortcut 2^(n-1-r) H^r R(H) is implemented
independently as ``closed_form_pushforward`` and their agreement is a test,
never an assumption.

The sum is evaluated in the l-variable ring and converted to Chern classes only
after the denominators clear; the intermediate sum is not expressible in the
c-variables, symmetry only emerges after summation.  Every class here is a
polynomial in H (``symfunc.HYPERPLANE``), the one hyperplane variable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
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
    build_roots,
    chern_polynomial,
    symmetric_to_chern,
    total_chern_poly,
)


class RepeatedRoots(ValueError):
    """Two roots coincide, so localization denominators would vanish."""


class InternalInconsistency(RuntimeError):
    """A localization sum failed to clear denominators or to be symmetric;
    this indicates an implementation bug, not a user error."""


@dataclass(frozen=True)
class FixedPoint:
    """One torus fixed point of P(V), indexed by the root it corresponds to."""

    index: int
    root: Polynomial
    hyperplane_restriction: Polynomial
    tangent_weights: tuple[Polynomial, ...]


def _distinct_roots(roots: RepRoots) -> tuple[Polynomial, ...]:
    """The roots, after checking they are pairwise distinct."""
    rs = roots.roots
    for i, j in itertools.combinations(range(len(rs)), 2):
        if rs[i] == rs[j]:
            raise RepeatedRoots(f"roots {i} and {j} coincide: {rs[i]}")
    return rs


def fixed_points(roots: RepRoots) -> list[FixedPoint]:
    """One fixed point per root; requires pairwise distinct roots."""
    rs = _distinct_roots(roots)
    points = []
    for j, m in enumerate(rs):
        weights = tuple(rs[i] - m for i in range(len(rs)) if i != j)
        points.append(FixedPoint(j, m, -m, weights))
    return points


def fundamental_class(roots: RepRoots, index: int) -> Polynomial:
    """Equivariant class of the fixed point as a complete intersection of the
    coordinate hyperplanes: prod over the other roots m of (H + m)."""
    rs = _distinct_roots(roots)
    if not 0 <= index < len(rs):
        raise IndexError(f"fixed point index {index} out of range")
    x = var(HYPERPLANE)
    return prod((x + m for i, m in enumerate(rs) if i != index), start=ONE)


@dataclass(frozen=True)
class VeroneseCorrespondence:
    """Fixed-point matching of the squaring embedding: the source point with
    root l_j maps to the target point with root 2*l_j."""

    rank: int
    source: RepRoots
    target: RepRoots
    point_map: tuple[int, ...]


@lru_cache(maxsize=None)
def veronese_correspondence(n: int) -> VeroneseCorrespondence:
    source = build_roots(n, "E*")
    target = build_roots(n, "Sym2(E*)")
    mapping = []
    for r in source.roots:
        doubled = 2 * r
        mapping.append(target.roots.index(doubled))
    if len(set(mapping)) != len(mapping):
        raise InternalInconsistency("squared roots are not pairwise distinct")
    return VeroneseCorrespondence(n, source, target, tuple(mapping))


@lru_cache(maxsize=None)
def _wedge_total_chern(n: int) -> Polynomial:
    """prod over pairs i<j of (H + l_i + l_j), in l-variables."""
    return total_chern_poly(build_roots(n, "Wedge2(E*)"))


def _localize(n: int, r: int, point_class, factor: Polynomial = ONE) -> Polynomial:
    """The localization sum for the pushforward of K^r: over the source fixed
    points P, point_class(P, points) (-l_P)^r / (tangent weights at P).  The
    sum must clear to a polynomial, which times ``factor`` is rewritten into
    Chern classes; a kept denominator or an asymmetric sum is an
    InternalInconsistency."""
    points = fixed_points(veronese_correspondence(n).source)
    total = sum_fractions(
        StructuredFraction.make(
            point_class(p, points) * p.hyperplane_restriction**r, p.tangent_weights
        )
        for p in points
    )
    if not total.is_polynomial():
        raise InternalInconsistency(f"localization sum kept a denominator: {total}")
    try:
        return symmetric_to_chern(total.as_polynomial() * factor, n)
    except NotSymmetric as exc:
        raise InternalInconsistency(f"localization sum is not symmetric: {exc}")


@lru_cache(maxsize=None)
def veronese_pushforward(n: int, r: int) -> Polynomial:
    """Pushforward of K^r to P(Sym2 E*), by explicit localization.

    Sums over the source fixed points P_j the class restriction (-l_j)^r times
    the target point class divided by the tangent weights at P_j.  The target
    point class factors as (prod_{k != j} (H + 2 l_k)) * (prod_{i<j} (H + l_i
    + l_j)); the second factor is independent of j and is multiplied back in
    after the sum, which keeps the summands small (the factorization is itself
    asserted by the test suite against ``fundamental_class``).
    """
    if n < 2 or not 0 <= r <= n - 1:
        raise ValueError("need n >= 2 and 0 <= r <= n-1")
    x = var(HYPERPLANE)

    def point_class(p, points):
        return prod((x + 2 * q.root for q in points if q.index != p.index), start=ONE)

    return _localize(n, r, point_class, _wedge_total_chern(n))


@lru_cache(maxsize=None)
def pushforward_via_fixed_point_classes(n: int, r: int) -> Polynomial:
    """Unfactored localization sum, using the target fixed-point classes as
    plain fundamental_class products.  Quadratically more expensive than
    ``veronese_pushforward``; used as an independent cross-check at small n.
    """
    if n < 2 or not 0 <= r <= n - 1:
        raise ValueError("need n >= 2 and 0 <= r <= n-1")
    corr = veronese_correspondence(n)

    def point_class(p, points):
        return fundamental_class(corr.target, corr.point_map[p.index])

    return _localize(n, r, point_class)


@lru_cache(maxsize=None)
def closed_form_pushforward(n: int, r: int) -> Polynomial:
    """Interpolation shortcut: 2^(n-1-r) * H^r * c_H(Wedge2(E*)), bypassing
    the localization sum entirely."""
    if n < 2 or not 0 <= r <= n - 1:
        raise ValueError("need n >= 2 and 0 <= r <= n-1")
    pairs = chern_polynomial(build_roots(n, "Wedge2(E*)"))
    return 2 ** (n - 1 - r) * var(HYPERPLANE) ** r * pairs
