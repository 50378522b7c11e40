"""Exact sparse multivariate polynomials over the integers, with a weighted grading.

This module alone knows how variable names are read and monomials laid out:

* A variable name is a stem with an optional decimal index (``c3``, ``l10``,
  ``H``, ``xi``); an index with a leading zero (``l01``, ``l0``) would tie
  with another spelling in the order and is rejected.  ``c<i>`` has weight i,
  every other variable (H, K, xi, l1..ln, t1..tn, ...) weight 1.  The fixed
  variable order is c1 < c2 < ... < H < K < xi < l1 < l2 < ... < t1 < ...
  < other names, indices compared as integers.  Each name is parsed once, on
  first use, into the name table read by ``var_key``, ``var_weight``,
  ``var_index`` and the LaTeX form.
* A monomial is a tuple of (variable, exponent) pairs, distinct variables and
  positive exponents, in the variable order: ``make_mono`` builds one,
  ``split_mono`` and ``mono_exponents`` take one apart.  A polynomial maps
  monomials to nonzero int coefficients; all arithmetic is exact.

On top of plain polynomials sits a small structured-fraction layer whose
denominators are products of linear forms, the only denominators torus
localization ever produces.  ``sum_fractions`` adds such fractions over their
least common denominator and clears it when the sum is a polynomial.

All values are immutable after construction and safe to share between threads;
every operation returns a fresh canonical value.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

Mono = tuple[tuple[str, int], ...]

_EMPTY_MONO: Mono = ()

# -- the name table ---------------------------------------------------------------

_STEM_ORDER = {"c": 0, "H": 1, "K": 2, "xi": 3, "l": 4, "t": 5}
_NAME_RE = re.compile(r"([A-Za-z_]+?)(\d*)\Z")


class _Var(NamedTuple):
    """What a name says; ``index`` is None for a name without digits."""

    key: tuple[int, int, str]
    weight: int
    stem: str
    index: int | None
    latex: str


class _NameTable(dict):
    """name -> _Var, each name parsed on its first lookup."""

    def __missing__(self, name: str) -> _Var:
        m = _NAME_RE.match(name)
        if m is None:
            entry = _Var((9, 0, name), 1, name, None, name)
        else:
            stem, digits = m.groups()
            if digits.startswith("0"):
                raise ValueError(f"variable index with a leading zero: {name!r}")
            index = int(digits) if digits else None
            entry = _Var(
                (_STEM_ORDER.get(stem, 8), index or 0, stem),
                index if stem == "c" and digits else 1,
                stem,
                index,
                f"{stem}_{{{digits}}}" if digits else name,
            )
        self[name] = entry
        return entry


_VARS = _NameTable()


def var_key(name: str) -> tuple[int, int, str]:
    """Sort key realizing the fixed variable order."""
    return _VARS[name].key


def var_weight(name: str) -> int:
    """Weighted degree of a variable: c_i has weight i, everything else 1."""
    return _VARS[name].weight


def var_index(name: str, stem: str) -> int | None:
    """i if ``name`` is ``<stem><i>``, else None."""
    entry = _VARS[name]
    return entry.index if entry.stem == stem else None


# -- monomials ------------------------------------------------------------------------


def _pair_key(pair: tuple[str, int]) -> tuple[int, int, str]:
    return _VARS[pair[0]].key


_exponent = itemgetter(1)


def make_mono(pairs: Iterable[tuple[str, int]]) -> Mono:
    """The canonical monomial of (variable, exponent) pairs with distinct
    variables: zero exponents dropped, sorted by the variable order."""
    return tuple(sorted(filter(_exponent, pairs), key=_pair_key))


def split_mono(mono: Mono, names) -> tuple[Mono, Mono]:
    """(the part of ``mono`` in the variables ``names``, the rest)."""
    inside = tuple(ve for ve in mono if ve[0] in names)
    rest = tuple(ve for ve in mono if ve[0] not in names)
    return inside, rest


def mono_exponents(mono: Mono, names) -> list[int]:
    """Exponents of ``mono`` in the variables ``names``, in that order."""
    exps = dict(mono)
    return [exps.get(v, 0) for v in names]


def mono_weight(mono: Mono) -> int:
    return sum(e * _VARS[v].weight for v, e in mono)


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    exps: dict[str, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return make_mono(exps.items())


def term_key(mono: Mono) -> tuple[int, tuple]:
    """Canonical total order on monomials: weighted degree, then lexicographic
    with earlier variables dominant (bigger exponent on an earlier variable
    compares larger, hence smaller in this key's tie-break component)."""
    return (mono_weight(mono), tuple((_VARS[v].key, -e) for v, e in mono))


def mono_str(mono: Mono) -> str:
    if not mono:
        return "1"
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)


@lru_cache(maxsize=None)
def monomials_of_degree(variables: tuple[str, ...], degree: int) -> tuple[Mono, ...]:
    """All monomials of exact weighted degree, in canonical monomial order.

    ``variables`` must be sorted by the fixed variable order.
    """
    if degree < 0:
        return ()
    if degree == 0:
        return ((),)
    if not variables:
        return ()
    first, rest = variables[0], variables[1:]
    w = var_weight(first)
    out: list[Mono] = []
    for e in range(degree // w, -1, -1):
        for tail in monomials_of_degree(rest, degree - e * w):
            out.append((((first, e),) + tail) if e else tail)
    out.sort(key=term_key)
    return tuple(out)


class NotDivisible(ArithmeticError):
    """Raised by exact_divide when the quotient does not exist over the integers."""


class Polynomial:
    """Immutable sparse polynomial with integer coefficients.

    ``terms`` maps canonical monomials to nonzero ints.  Polynomials compare
    equal iff their term maps are identical, which is exactly ring equality
    because the representation is canonical.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Mono, int] | None = None):
        cleaned = {m: c for m, c in (terms or {}).items() if c}
        self._terms: dict[Mono, int] = cleaned
        self._hash: int | None = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def variable(name: str) -> Polynomial:
        _VARS[name]  # a name the variable order cannot place raises here
        return Polynomial({((name, 1),): 1})

    @staticmethod
    def constant(value: int) -> Polynomial:
        return Polynomial({_EMPTY_MONO: int(value)})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict[Mono, int]:
        return self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def variables(self) -> tuple[str, ...]:
        seen = {v for m in self._terms for v, _ in m}
        return tuple(sorted(seen, key=var_key))

    def coefficient(self, mono: Mono) -> int:
        return self._terms.get(mono, 0)

    def weighted_degree(self) -> int:
        """Maximum weighted degree of a term; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(mono_weight(m) for m in self._terms)

    def is_homogeneous(self) -> bool:
        degrees = {mono_weight(m) for m in self._terms}
        return len(degrees) <= 1

    def homogeneous_components(self) -> dict[int, Polynomial]:
        parts: dict[int, dict[Mono, int]] = {}
        for m, c in self._terms.items():
            parts.setdefault(mono_weight(m), {})[m] = c
        return {d: Polynomial(t) for d, t in sorted(parts.items())}

    def homogeneous_part(self, degree: int) -> Polynomial:
        return Polynomial(
            {m: c for m, c in self._terms.items() if mono_weight(m) == degree}
        )

    def leading_item(self) -> tuple[Mono, int]:
        """Largest term under the canonical monomial order; requires self != 0."""
        mono = max(self._terms, key=term_key)
        return mono, self._terms[mono]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Polynomial | int) -> Polynomial:
        other = _coerce(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return _trusted(out)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return _trusted({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Polynomial | int) -> Polynomial:
        return self + (-_coerce(other))

    def __rsub__(self, other: Polynomial | int) -> Polynomial:
        return _coerce(other) + (-self)

    def __mul__(self, other: Polynomial | int) -> Polynomial:
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return _trusted({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        out: dict[Mono, int] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = mono_mul(ma, mb)
                s = out.get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
        return _trusted(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if exponent < 0:
            raise ValueError("negative exponent")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def mono_shift(self, mono: Mono, coeff: int = 1) -> Polynomial:
        """Multiply by a single term coeff*mono (cheap key remap)."""
        if coeff == 0:
            return ZERO
        return _trusted({mono_mul(m, mono): c * coeff for m, c in self._terms.items()})

    # -- substitution and evaluation -----------------------------------------

    def substitute(self, name: str, replacement: Polynomial | int) -> Polynomial:
        """Replace every occurrence of a variable by a polynomial, expanded."""
        replacement = _coerce(replacement)
        untouched: dict[Mono, int] = {}
        grouped: dict[int, dict[Mono, int]] = {}
        names = (name,)
        for m, c in self._terms.items():
            inside, rest = split_mono(m, names)
            if inside:
                grouped.setdefault(inside[0][1], {})[rest] = c
            else:
                untouched[m] = c
        result = Polynomial(untouched)
        for e, terms in grouped.items():
            result = result + Polynomial(terms) * replacement**e
        return result

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Evaluate at integer values; every variable present must be assigned."""
        total = 0
        for m, c in self._terms.items():
            prod = c
            for v, e in m:
                prod *= assignment[v] ** e
            total += prod
        return total

    def rename(self, mapping: Mapping[str, str]) -> Polynomial:
        """Rename variables (used for symmetry checks); result re-canonicalized."""
        out: dict[Mono, int] = {}
        for m, c in self._terms.items():
            nm = make_mono((mapping.get(v, v), e) for v, e in m)
            out[nm] = out.get(nm, 0) + c
        return Polynomial(out)

    # -- serialization --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Mono, int]]:
        return sorted(self._terms.items(), key=lambda mc: term_key(mc[0]))

    def to_text(self) -> str:
        """Canonical text form, e.g. ``4*c3 + 2*c1*c3``."""
        return self._render(lambda v, e: v if e == 1 else f"{v}^{e}", "*")

    def to_latex(self) -> str:
        def factor(v: str, e: int) -> str:
            base = _VARS[v].latex
            return base if e == 1 else f"{base}^{{{e}}}"

        return self._render(factor, "")

    def _render(self, factor, sep: str) -> str:
        """The signed sum of the sorted terms; a term is its magnitude and its
        ``factor(variable, exponent)`` strings, joined by ``sep``."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.sorted_terms():
            mag = abs(coeff)
            body = sep.join(factor(v, e) for v, e in mono)
            if not body:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}{sep}{body}"
            if parts:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
            else:
                parts.append(body if coeff > 0 else f"-{body}")
        return " ".join(parts)

    def to_json_obj(self) -> list[dict]:
        return [
            {"coeff": str(c), "exps": {v: e for v, e in m}}
            for m, c in self.sorted_terms()
        ]

    @staticmethod
    def from_json_obj(obj: Iterable[Mapping]) -> Polynomial:
        terms: dict[Mono, int] = {}
        for entry in obj:
            mono = make_mono((v, int(e)) for v, e in entry["exps"].items())
            terms[mono] = terms.get(mono, 0) + int(entry["coeff"])
        return Polynomial(terms)

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @staticmethod
    def from_json(text: str) -> Polynomial:
        return Polynomial.from_json_obj(json.loads(text))

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"


def _trusted(terms: dict[Mono, int]) -> Polynomial:
    """A polynomial on a canonical term map that holds no zero coefficient."""
    p = Polynomial.__new__(Polynomial)
    p._terms = terms
    p._hash = None
    return p


def _coerce(x: Polynomial | int) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, int):
        return Polynomial.constant(x)
    raise TypeError(f"cannot use {type(x).__name__} as a polynomial")


ZERO = Polynomial()
ONE = Polynomial.constant(1)


def var(name: str) -> Polynomial:
    return Polynomial.variable(name)


def const(value: int) -> Polynomial:
    return Polynomial.constant(value)


# -- parsing -------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\^)|(\*)|(\+)|(-)|(\()|(\)))")


def parse_polynomial(text: str) -> Polynomial:
    """Parse the canonical text form (also accepts parenthesized sums/products)."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize polynomial at: {text[pos:]!r}")
            break
        tokens.append(m.group(m.lastindex))
        pos = m.end()

    def parse_sum(i: int) -> tuple[Polynomial, int]:
        total = ZERO
        sign = 1
        if i < len(tokens) and tokens[i] in "+-":
            sign = -1 if tokens[i] == "-" else 1
            i += 1
        while True:
            term, i = parse_product(i)
            total = total + term * sign
            if i < len(tokens) and tokens[i] in "+-":
                sign = -1 if tokens[i] == "-" else 1
                i += 1
            else:
                return total, i

    def parse_product(i: int) -> tuple[Polynomial, int]:
        result, i = parse_factor(i)
        while i < len(tokens) and (tokens[i] == "*" or tokens[i] == "("):
            if tokens[i] == "*":
                i += 1
            factor, i = parse_factor(i)
            result = result * factor
        return result, i

    def parse_factor(i: int) -> tuple[Polynomial, int]:
        if i >= len(tokens):
            raise ValueError("unexpected end of polynomial text")
        tok = tokens[i]
        if tok == "(":
            inner, i = parse_sum(i + 1)
            if i >= len(tokens) or tokens[i] != ")":
                raise ValueError("unbalanced parenthesis")
            base, i = inner, i + 1
        elif tok.isdigit():
            base, i = Polynomial.constant(int(tok)), i + 1
        elif tok == "-":
            inner, i = parse_factor(i + 1)
            return -inner, i
        else:
            base, i = Polynomial.variable(tok), i + 1
        if i < len(tokens) and tokens[i] == "^":
            if i + 1 >= len(tokens) or not tokens[i + 1].isdigit():
                raise ValueError("exponent must be a literal integer")
            base = base ** int(tokens[i + 1])
            i += 2
        return base, i

    if not tokens:
        return ZERO
    result, i = parse_sum(0)
    if i != len(tokens):
        raise ValueError(f"trailing tokens in polynomial text: {tokens[i:]}")
    return result


# -- exact division --------------------------------------------------------------


class _MaxKey:
    """Wrapper inverting comparison so heapq acts as a max-heap on term keys."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other) -> bool:
        return self.key > other.key

    def __eq__(self, other) -> bool:
        return self.key == other.key


def _try_exact_divide(p: Polynomial, q: Polynomial) -> Polynomial | None:
    if not q:
        raise ZeroDivisionError("exact_divide by the zero polynomial")
    if not p:
        return ZERO
    q_items = q.sorted_terms()
    lead_mono, lead_coeff = q_items[-1]
    lead_exps = dict(lead_mono)
    tail = q_items[:-1]

    rem = dict(p.terms)
    heap = [_MaxKey((term_key(m), m)) for m in rem]
    heapq.heapify(heap)
    quotient: dict[Mono, int] = {}

    while heap:
        mono = heapq.heappop(heap).key[1]
        coeff = rem.get(mono, 0)
        if not coeff:
            continue
        if coeff % lead_coeff:
            return None
        exps = dict(mono)
        qm: list[tuple[str, int]] = []
        for v, e in exps.items():
            d = e - lead_exps.get(v, 0)
            if d < 0:
                return None
            qm.append((v, d))
        if any(v not in exps for v in lead_exps):
            return None
        qmono = make_mono(qm)
        qcoeff = coeff // lead_coeff
        quotient[qmono] = qcoeff
        del rem[mono]
        for tm, tc in tail:
            m2 = mono_mul(qmono, tm)
            old = rem.get(m2, 0)
            new = old - qcoeff * tc
            if new:
                if not old:
                    heapq.heappush(heap, _MaxKey((term_key(m2), m2)))
                rem[m2] = new
            else:
                rem.pop(m2, None)
    if rem:
        return None
    return Polynomial(quotient)


def exact_divide(p: Polynomial, q: Polynomial | int) -> Polynomial:
    """Return r with p = q*r, or raise NotDivisible if no such r exists over Z."""
    q = _coerce(q)
    result = _try_exact_divide(p, q)
    if result is None:
        raise NotDivisible(f"({p}) is not divisible by ({q})")
    return result


def divides(q: Polynomial | int, p: Polynomial) -> bool:
    return _try_exact_divide(p, _coerce(q)) is not None


# -- structured fractions ----------------------------------------------------------


def poly_sort_key(p: Polynomial) -> tuple:
    """Deterministic total order on polynomials (term list order, then coeffs)."""
    return tuple((term_key(m), c) for m, c in p.sorted_terms())


def _normalize_linear_factor(f: Polynomial) -> tuple[Polynomial, int]:
    """Canonical sign: the coefficient of the smallest monomial is positive."""
    if not f:
        raise ValueError("zero linear factor")
    if f.weighted_degree() != 1 or not f.is_homogeneous():
        raise ValueError(f"factor is not homogeneous of degree 1: {f}")
    first = min(f.terms, key=term_key)
    if f.terms[first] < 0:
        return -f, -1
    return f, 1


@dataclass(frozen=True)
class LinearFormProduct:
    """A multiset of degree-1 factors with multiplicities, in canonical form.

    Factors are sign-normalized; construction via ``from_factors`` reports the
    sign absorbed into the normalization.
    """

    factors: tuple[tuple[Polynomial, int], ...]

    @staticmethod
    def from_factors(
        factors: Iterable[Polynomial | tuple[Polynomial, int]],
    ) -> tuple[LinearFormProduct, int]:
        counts: dict[Polynomial, int] = {}
        sign = 1
        for f in factors:
            f, mult = f if isinstance(f, tuple) else (f, 1)
            if mult < 0:
                raise ValueError("factor multiplicity must be non-negative")
            if mult == 0:
                continue
            g, s = _normalize_linear_factor(f)
            if s < 0 and mult % 2:
                sign = -sign
            counts[g] = counts.get(g, 0) + mult
        return LinearFormProduct._ordered(counts), sign

    @staticmethod
    def _ordered(counts: dict[Polynomial, int]) -> LinearFormProduct:
        return LinearFormProduct(
            tuple(sorted(counts.items(), key=lambda fm: poly_sort_key(fm[0])))
        )

    @staticmethod
    def empty() -> LinearFormProduct:
        return LinearFormProduct(())

    def __bool__(self) -> bool:
        return bool(self.factors)

    def __iter__(self) -> Iterator[tuple[Polynomial, int]]:
        return iter(self.factors)

    def degree(self) -> int:
        return sum(m for _, m in self.factors)

    def expand(self) -> Polynomial:
        return prod((f**m for f, m in self.factors), start=ONE)

    def lcm(self, other: LinearFormProduct) -> LinearFormProduct:
        counts = dict(self.factors)
        for f, m in other.factors:
            counts[f] = max(counts.get(f, 0), m)
        return LinearFormProduct._ordered(counts)

    def complement_to(self, lcm: LinearFormProduct) -> Polynomial:
        """Expanded product lcm / self (self must divide lcm factor-wise)."""
        result = ONE
        own = dict(self.factors)
        for f, m in lcm.factors:
            extra = m - own.get(f, 0)
            if extra < 0:
                raise ValueError("not a factor-wise multiple")
            if extra:
                result = result * f**extra
        return result


@dataclass(frozen=True)
class StructuredFraction:
    """numerator / (product of linear forms); an empty denominator means a
    plain polynomial."""

    numerator: Polynomial
    denominator: LinearFormProduct

    @staticmethod
    def make(
        numerator: Polynomial | int,
        factors: Iterable[Polynomial | tuple[Polynomial, int]] = (),
    ) -> StructuredFraction:
        den, sign = LinearFormProduct.from_factors(factors)
        num = _coerce(numerator) * sign
        if not num:
            return StructuredFraction(ZERO, LinearFormProduct.empty())
        return StructuredFraction(num, den)

    def is_polynomial(self) -> bool:
        return not self.denominator

    def as_polynomial(self) -> Polynomial:
        if self.denominator:
            raise ValueError("fraction has a nontrivial denominator")
        return self.numerator

    def reduced(self) -> StructuredFraction:
        """Cancel denominator factors that divide the numerator exactly."""
        if not self.numerator:
            return StructuredFraction(ZERO, LinearFormProduct.empty())
        if not self.denominator:
            return self
        num = _try_exact_divide(self.numerator, self.denominator.expand())
        if num is not None:
            return StructuredFraction(num, LinearFormProduct.empty())
        num = self.numerator
        remaining: list[tuple[Polynomial, int]] = []
        for f, m in self.denominator:
            while m > 0:
                q = _try_exact_divide(num, f)
                if q is None:
                    break
                num = q
                m -= 1
            if m:
                remaining.append((f, m))
        return StructuredFraction(num, LinearFormProduct(tuple(remaining)))

    def __str__(self) -> str:
        if not self.denominator:
            return self.numerator.to_text()
        den = " * ".join(
            f"({f.to_text()})" if m == 1 else f"({f.to_text()})^{m}"
            for f, m in self.denominator
        )
        return f"({self.numerator.to_text()}) / ({den})"


def sum_fractions(fractions: Iterable[StructuredFraction]) -> StructuredFraction:
    """Sum over the least common denominator, then clear it if possible.

    The result is independent of input order; if the denominator divides the
    summed numerator the result comes back with an empty denominator.
    """
    fractions = [f for f in fractions if f.numerator]
    if not fractions:
        return StructuredFraction(ZERO, LinearFormProduct.empty())
    lcm = LinearFormProduct.empty()
    for f in fractions:
        lcm = lcm.lcm(f.denominator)
    total = ZERO
    for f in fractions:
        total = total + f.numerator * f.denominator.complement_to(lcm)
    return StructuredFraction(total, lcm).reduced()
