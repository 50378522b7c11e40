"""Exact sparse multivariate polynomials over the integers, with a weighted grading.

This module alone knows how variable names are read and monomials laid out:

* A variable name is a stem with an optional decimal index (``c3``, ``l10``,
  ``H``, ``xi``); an index with a leading zero (``l01``, ``l0``) would tie
  with another spelling in the order and is rejected, and so is a name that
  is not the parser's name token, an ASCII letter or underscore and then
  letters, digits and underscores (not ``""``, ``c1^2`` or ``a b``): its
  text form would not read back.  ``c<i>`` has weight i,
  every other variable (H, K, xi, l1..ln, t1..tn, ...) weight 1.  The fixed
  variable order is c1 < c2 < ... < H < K < xi < l1 < l2 < ... < t1 < ...
  < other names, indices compared as integers.  Each name is parsed once, on
  first use, into the name table read by ``var_key``, ``var_weight``,
  ``var_index`` and the LaTeX form; that first use also gives the name the
  next free slot, so slots follow first use, not the variable order.
* A monomial is a packed exponent vector (Monagan--Pearce, CASC 2007): one
  non-negative int whose lowest 48 bits hold its weighted degree, followed
  by a 16-bit field per slot, the exponent of slot s in bits
  48+16s..48+16s+14.  The top bit of every field (bit 47 of the weight
  field, bit 48+16s+15 of slot s) is a guard bit, always clear.  The empty
  monomial is 0.  A product of monomials is one int addition, which adds
  the weights too; since each exponent is below 2**15 and each weight below
  2**47, two fields never carry into the next, and a sum that reaches a
  field's guard bit sets it, which every product checks against the mask
  ``_GUARD`` of all guard bits: it raises OverflowError and never wraps.
  A variable's weight is below 2**16 (a larger c-index is a ValueError),
  so no single factor v^e passes the weight field's guard bit.  m is
  divisible by d iff ``((m | _GUARD) - d) & _GUARD`` is ``_GUARD`` (a
  field that borrows clears its own guard bit and stops there), and the
  quotient, weight included, is that difference ``^ _GUARD``.
  ``make_mono`` packs (variable, exponent) pairs, the weight is
  ``mono & _WEIGHT``, ``mono_exponents`` and ``substitute`` mask out named
  fields, and every other read of the fields goes through ``_decoder``.
* Two orders.  The packed ints compare as a monomial order (a < b implies
  a + m < b + m): lexicographic, the latest slot first (``lex_priority``;
  the weight field is lowest and never decides).  Slots follow first use,
  so only results every monomial order gives alike read it: exact division
  and the symmetric rewrite of ``eqchow.symfunc``, on one remainder heap (a
  dict and a heap of negated ints, updated by ``_subtract_shifted``).  Bytes
  and determinism rest on the canonical order, ``term_key``, in which
  ``monomials_of_degree`` builds its basis.  Text, LaTeX and JSON sort the
  decoded exponent tuples descending, then stably by weight: the same
  order, as every variable weighs at least 1, so at equal weight no
  monomial's exponents extend another's and the first difference decides.
  ``parse_polynomial`` reads back exactly the text form and nothing else.
* A polynomial maps monomials to nonzero int coefficients; all arithmetic is
  exact.  ``Polynomial(terms)`` also takes a tuple of (variable, exponent)
  pairs as a key and packs it; that is the only other spelling of a
  monomial.

On top of plain polynomials sits a small structured-fraction layer whose
denominators are products of linear forms, the only denominators torus
localization ever produces, kept as (form, multiplicity) pairs and never
expanded.  ``sum_fractions`` adds such fractions over their least common
denominator and ``reduced`` cancels it one form at a time, which clears it
when the sum is a polynomial.

``Record`` is the base of every immutable value class of the package, here
and in the modules above: fields named once, in ``__slots__``, and bound by
``Record.__init__`` from one value per slot, equality and hash over the field
tuple for the same class only, a ``Name(field=value, ...)`` repr and
``replace``.  It generates no code at class creation, so importing the
package stays cheap.

All values are immutable after construction and safe to share between threads;
every operation returns a fresh canonical value.
"""

from __future__ import annotations

import heapq
import re
import sys
import threading
from functools import lru_cache, reduce
from itertools import compress
from operator import itemgetter, or_
from typing import Iterable, Mapping, NamedTuple

Mono = int

_EMPTY_MONO: Mono = 0

# -- the name table ---------------------------------------------------------------

_STEM_ORDER = {"c": 0, "H": 1, "K": 2, "xi": 3, "l": 4, "t": 5}
_NAME_RE = re.compile(r"([A-Za-z_]+?)(\d*)\Z")
# the parser's name token; a variable name must be one, so its text reads back
_NAME_TOKEN = r"[A-Za-z_]\w*"
_IS_NAME = re.compile(_NAME_TOKEN + r"\Z", re.ASCII).match

_WEIGHT_BITS = 48
_WEIGHT = (1 << _WEIGHT_BITS) - 1  # the weighted-degree field
_FIELD_BITS = 16
_FIELD = (1 << _FIELD_BITS) - 1
_LIMIT = 1 << (_FIELD_BITS - 1)  # the guard bit; every exponent stays below it
# the guard bits of the weight field and of every slot given out so far
_GUARD = 1 << (_WEIGHT_BITS - 1)
# ``_decoder``'s value, replaced whole before a new name's entry is
# published, so it covers every slot a monomial can hold
_DECODER = ((), lambda mono: ())
_SLOT_LOCK = threading.Lock()


class _Var(NamedTuple):
    """What a name says; ``index`` is None for a name without digits,
    ``shift`` is the position of the name's exponent field and ``unit`` the
    monomial of the variable itself, its exponent field and its weight."""

    key: tuple[int, int, str]
    weight: int
    stem: str
    index: int | None
    latex: str
    shift: int
    unit: int


class _NameTable(dict):
    """name -> _Var, each name parsed, and given the next slot, on its first
    lookup."""

    def __missing__(self, name: str) -> _Var:
        global _GUARD, _DECODER
        if not _IS_NAME(name):
            raise ValueError(f"not a name token {_NAME_TOKEN}: {name!r}")
        m = _NAME_RE.match(name)
        if m is None:
            parsed = ((9, 0, name), 1, name, None, name)
        else:
            stem, digits = m.groups()
            if digits.startswith("0"):
                raise ValueError(f"variable index with a leading zero: {name!r}")
            index = int(digits) if digits else None
            parsed = (
                (_STEM_ORDER.get(stem, 8), index or 0, stem),
                index if stem == "c" and digits else 1,
                stem,
                index,
                f"{stem}_{{{digits}}}" if digits else name,
            )
            if parsed[1] > _FIELD:
                raise ValueError(f"variable weight above {_FIELD}: {name!r}")
        with _SLOT_LOCK:
            if name in self:  # another thread gave it a slot first
                return self[name]
            names = _DECODER[0]
            shift = _WEIGHT_BITS + len(names) * _FIELD_BITS
            entry = _Var(*parsed, shift, (1 << shift) + parsed[1])
            _DECODER = _decoder([(v, self[v]) for v in names] + [(name, entry)])
            _GUARD |= _LIMIT << shift
            self[name] = entry
        return entry


def _decoder(slotted: list[tuple[str, _Var]]):
    """(names, exponents) for the (name, entry) pairs of every slot: the names
    in the variable order, and the one function giving a monomial's exponents
    of them, picked in C from its bytes as 16-bit words (the weight field is
    words 0..2 from the least significant end, slot s word 3 + s)."""
    slotted.sort(key=lambda ve: ve[1].key)
    order, nbytes = sys.byteorder, 2 * (3 + len(slotted))
    words = [e.shift // _FIELD_BITS for _, e in slotted]
    if order == "big":  # the most significant word comes first
        words = [nbytes // 2 - 1 - w for w in words]
    get = itemgetter(*words) if len(words) > 1 else lambda w: (w[words[0]],)

    def exponents(mono: Mono) -> tuple[int, ...]:
        return get(memoryview(mono.to_bytes(nbytes, order)).cast("H"))

    return tuple(v for v, _ in slotted), exponents


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


def _overflow() -> OverflowError:
    return OverflowError(f"a monomial exponent reached the field limit {_LIMIT}")


def _check_guards(mono: Mono) -> None:
    """OverflowError if a sum of monomials set a guard bit in ``mono`` (or in
    any of the products OR-ed into it)."""
    if mono & _GUARD:
        raise _overflow()


def make_mono(pairs: Iterable[tuple[str, int]]) -> Mono:
    """The monomial prod v^e of (variable, exponent) pairs: zero exponents
    drop out and a repeated variable's exponents add.  A negative exponent is
    a ValueError, one that reaches the field limit an OverflowError."""
    mono = 0
    for v, e in pairs:
        if e:
            if e < 0:
                raise ValueError(f"negative exponent: {v}^{e}")
            if e >= _LIMIT:
                raise _overflow()
            mono += e * _VARS[v].unit
            _check_guards(mono)
    return mono


def mono_exponents(mono: Mono, names) -> list[int]:
    """Exponents of ``mono`` in the variables ``names``, in that order."""
    return [(mono >> _VARS[v].shift) & _FIELD for v in names]


def ring_mask(names) -> Mono:
    """The bits a monomial in the variables ``names`` alone can set: the
    weight field and their exponent fields."""
    return reduce(or_, (_FIELD << _VARS[v].shift for v in names), _WEIGHT)


def lex_priority(names) -> tuple[str, ...]:
    """The variables ``names`` from the most to the least significant exponent
    field, the priority of the lexicographic order packed ints compare in."""
    return tuple(sorted(names, key=lambda v: _VARS[v].shift, reverse=True))


def _pairs(names: tuple[str, ...], exponents: tuple[int, ...]) -> tuple:
    """(variable, exponent) pairs of the nonzero ``exponents`` of ``names``."""
    return tuple(zip(compress(names, exponents), filter(None, exponents)))


def mono_pairs(mono: Mono) -> tuple[tuple[str, int], ...]:
    """(variable, exponent) pairs of a monomial, in the variable order."""
    names, exponents = _DECODER
    return _pairs(names, exponents(mono))


def term_key(mono: Mono) -> tuple[int, tuple]:
    """The canonical order: weighted degree, then (variable key, -exponent,
    ...), lexicographic with a bigger exponent on an earlier variable first."""
    key = []
    for v, e in mono_pairs(mono):
        key += (_VARS[v].key, -e)
    return mono & _WEIGHT, tuple(key)


def mono_str(mono: Mono) -> str:
    return _trusted({mono: 1}).to_text()


@lru_cache(maxsize=None)
def monomials_of_degree(variables: tuple[str, ...], degree: int) -> tuple[Mono, ...]:
    """All monomials of exact weighted degree, in the canonical order, which
    the loop builds: the first variable's exponent runs downward and each
    tail is in order by recursion.  ``variables`` must be strictly sorted by
    the fixed variable order (ValueError if not)."""
    if any(var_key(a) >= var_key(b) for a, b in zip(variables, variables[1:])):
        raise ValueError(f"variables not strictly in the variable order: {variables}")
    if degree < 0:
        return ()
    if degree == 0:
        return (_EMPTY_MONO,)
    if not variables:
        return ()
    first, rest = variables[0], variables[1:]
    w, unit = _VARS[first].weight, _VARS[first].unit
    if degree // w >= _LIMIT:
        raise _overflow()
    out: list[Mono] = []
    for e in range(degree // w, -1, -1):
        for tail in monomials_of_degree(rest, degree - e * w):
            out.append(e * unit + tail)
    return tuple(out)


class NotDivisible(ArithmeticError):
    """Raised by exact_divide when the quotient does not exist over the integers."""


class Polynomial:
    """Immutable sparse polynomial with integer coefficients.

    ``terms`` maps monomials to ints; a key may also be a tuple of
    (variable, exponent) pairs, which is packed.  Zero coefficients are
    dropped.  Polynomials compare equal iff their term maps are identical,
    which is exactly ring equality because the representation is canonical.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Mono | tuple, int] | None = None):
        cleaned: dict[Mono, int] = {}
        for m, c in (terms or {}).items():
            if c:
                if m.__class__ is not int:
                    m = make_mono(m)
                cleaned[m] = cleaned.get(m, 0) + c
        self._terms: dict[Mono, int] = {m: c for m, c in cleaned.items() if c}
        self._hash: int | None = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def variable(name: str) -> Polynomial:
        return _trusted({_VARS[name].unit: 1})

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
        if self._hash is None:  # a constant hashes as the int it equals
            t = self._terms
            self._hash = hash(frozenset(t.items()) if any(t) else t.get(_EMPTY_MONO, 0))
        return self._hash

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in mono_pairs(reduce(or_, self._terms, 0)))

    def coefficient(self, mono: Mono) -> int:
        return self._terms.get(mono, 0)

    def weighted_degree(self) -> int:
        """Maximum weighted degree of a term; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(m & _WEIGHT for m in self._terms)

    def is_homogeneous(self) -> bool:
        degrees = {m & _WEIGHT for m in self._terms}
        return len(degrees) <= 1

    def homogeneous_components(self) -> dict[int, Polynomial]:
        parts: dict[int, dict[Mono, int]] = {}
        for m, c in self._terms.items():
            parts.setdefault(m & _WEIGHT, {})[m] = c
        return {d: _trusted(t) for d, t in sorted(parts.items())}

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
                m = ma + mb
                s = out.get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
        _check_guards(reduce(or_, out, 0))
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
        out = {m + mono: c * coeff for m, c in self._terms.items()}
        _check_guards(reduce(or_, out, 0))
        return _trusted(out)

    # -- substitution and evaluation -----------------------------------------

    def substitute(self, name: str, replacement: Polynomial | int) -> Polynomial:
        """Replace every occurrence of a variable by a polynomial, expanded."""
        replacement = _coerce(replacement)
        untouched: dict[Mono, int] = {}
        grouped: dict[int, dict[Mono, int]] = {}
        shift, unit = _VARS[name].shift, _VARS[name].unit
        for m, c in self._terms.items():
            e = (m >> shift) & _FIELD
            if e:
                grouped.setdefault(e, {})[m - e * unit] = c
            else:
                untouched[m] = c
        result = Polynomial(untouched)
        for e, terms in grouped.items():
            result = result + Polynomial(terms) * replacement**e
        return result

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Evaluate at integer values; every variable present must be assigned."""
        return self.evaluate_at([assignment])[0]

    def evaluate_at(self, points: list[Mapping[str, int]]) -> list[int]:
        """The values at each of several points, in one pass over the terms,
        with each power of each variable computed once per point."""
        powers, values = [{} for _ in points], [0] * len(points)
        for m, c in self._terms.items():
            pairs = mono_pairs(m)
            for j, point in enumerate(points):
                term, known = c, powers[j]
                for pair in pairs:
                    power = known.get(pair)
                    if power is None:
                        power = known[pair] = point[pair[0]] ** pair[1]
                    term *= power
                values[j] += term
        return values

    def rename(self, mapping: Mapping[str, str]) -> Polynomial:
        """Rename variables (used for symmetry checks); result re-canonicalized."""
        out: dict[Mono, int] = {}
        for m, c in self._terms.items():
            nm = make_mono((mapping.get(v, v), e) for v, e in mono_pairs(m))
            out[nm] = out.get(nm, 0) + c
        return Polynomial(out)

    # -- serialization --------------------------------------------------------

    def _sorted_pairs(self) -> list[tuple[tuple[tuple[str, int], ...], int]]:
        """(pairs, coefficient) of each term, in the canonical order: the one
        term sorter.  One decoder read serves the call, so the exponent tuples
        it sorts all have one length."""
        names, exponents = _DECODER
        rows = [(exponents(m), m & _WEIGHT, c) for m, c in self._terms.items()]
        rows.sort(reverse=True)
        rows.sort(key=itemgetter(1))
        return [(_pairs(names, e), c) for e, _, c in rows]

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
        for pairs, coeff in self._sorted_pairs():
            mag = abs(coeff)
            body = sep.join(factor(v, e) for v, e in pairs)
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
            {"coeff": str(c), "exps": dict(pairs)} for pairs, c in self._sorted_pairs()
        ]

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

_TOKEN_RE = re.compile(
    rf"\s*(?:(\d+)|({_NAME_TOKEN})|(\^)|(\*)|(\+)|(-)|(\()|(\)))", re.ASCII
)


def parse_polynomial(text: str) -> Polynomial:
    """Read back the canonical text form ``Polynomial.to_text`` writes: terms
    joined by ``+`` or ``-``, the first one optionally signed, each a ``*``
    product of integers and names, a name with an optional literal exponent
    ``^e``; blank text is ZERO.  Other text (a parenthesis, ``c1*-c2``,
    ``--c1``, ``2^3``) is a ValueError before any name is looked up."""
    tokens: list[str] = []
    pos = 0
    while m := _TOKEN_RE.match(text, pos):
        tokens.append(m.group(m.lastindex))
        pos = m.end()
    if text[pos:].strip():
        raise ValueError(f"cannot tokenize polynomial at: {text[pos:]!r}")
    if not tokens:
        return ZERO
    tokens.append("")  # the end
    terms: list[list] = []  # each term's coefficient, then its (name, exponent)s
    i = int(tokens[0] in ("+", "-"))
    op = tokens[0] if i else "+"
    while op:  # op is the sign or "*" before the factor at tokens[i]
        if op != "*":
            terms.append([-1 if op == "-" else 1])
        tok, i = tokens[i], i + 1
        if tok.isdigit():
            terms[-1][0] *= int(tok)
        elif _IS_NAME(tok):
            exp = 1
            if tokens[i] == "^":
                if not tokens[i + 1].isdigit():
                    raise ValueError("exponent must be a literal integer")
                exp, i = int(tokens[i + 1]), i + 2
            terms[-1].append((tok, exp))
        elif tok:
            raise ValueError(f"expected a factor, found {tok!r}")
        else:
            raise ValueError("unexpected end of polynomial text")
        op, i = tokens[i], i + 1
        if op not in ("+", "-", "*", ""):
            raise ValueError(f"trailing tokens in polynomial text: {tokens[i - 1:-1]}")
    total = ZERO
    for coeff, *pairs in terms:
        term = Polynomial.constant(coeff)
        for name, exp in pairs:
            term = term * Polynomial.variable(name) ** exp
        total = total + term
    return total


# -- exact division --------------------------------------------------------------


def _subtract_shifted(rem: dict, heap: list, shift: Mono, coeff: int, terms) -> None:
    """rem -= coeff * shift * (the (monomial, coefficient) pairs ``terms``), in
    place: the remainder update of a leading-term reduction.  A monomial that
    enters ``rem`` is pushed, negated, onto ``heap``; every packed sum is
    checked against the guard bits."""
    guard = _GUARD
    for m, c in terms:
        m2 = shift + m
        if m2 & guard:
            raise _overflow()
        old = rem.get(m2, 0)
        new = old - coeff * c
        if new:
            if not old:
                heapq.heappush(heap, -m2)
            rem[m2] = new
        else:
            rem.pop(m2, None)


def _try_exact_divide(p: Polynomial, q: Polynomial) -> Polynomial | None:
    """p / q, or None if there is none over Z; cancels the largest packed int
    first (any monomial order gives the one quotient)."""
    if not q:
        raise ZeroDivisionError("exact_divide by the zero polynomial")
    if not p:
        return ZERO
    guard = _GUARD
    lead_mono = max(q.terms)
    lead_coeff = q.terms[lead_mono]
    tail = [(m, c) for m, c in q.terms.items() if m != lead_mono]

    rem = dict(p.terms)
    heap = [-m for m in rem]  # negated, so heapq pops the largest monomial
    heapq.heapify(heap)
    quotient: dict[Mono, int] = {}

    while heap:
        mono = -heapq.heappop(heap)
        coeff = rem.get(mono, 0)
        if not coeff:
            continue
        if coeff % lead_coeff:
            return None
        # a field that borrows clears its guard bit: lead_mono does not divide
        t = (mono | guard) - lead_mono
        if t & guard != guard:
            return None
        qmono = t ^ guard
        qcoeff = coeff // lead_coeff
        quotient[qmono] = qcoeff
        del rem[mono]
        _subtract_shifted(rem, heap, qmono, qcoeff, tail)
    if rem:
        return None
    return _trusted(quotient)


def exact_divide(p: Polynomial, q: Polynomial | int) -> Polynomial:
    """Return r with p = q*r, or raise NotDivisible if no such r exists over Z."""
    q = _coerce(q)
    result = _try_exact_divide(p, q)
    if result is None:
        raise NotDivisible(f"{_summary(p)} is not divisible by {_summary(q)}")
    return result


def _summary(p: Polynomial) -> str:
    """A nonzero polynomial in a bounded message: its term count and the term
    its canonical text leads with."""
    lead = min(p.terms, key=term_key)
    return f"a {len(p)}-term polynomial led by {_trusted({lead: p.terms[lead]})}"


def divides(q: Polynomial | int, p: Polynomial) -> bool:
    return _try_exact_divide(p, _coerce(q)) is not None


# -- immutable records -------------------------------------------------------------

class Record:
    """Base of the immutable value classes.

    A subclass names its fields once, in ``__slots__``.  ``Record.__init__``
    takes one value per slot, in slot order (TypeError on any other count),
    and is the only code that sets a field; a subclass writes an ``__init__``
    only to validate or to give defaults, then calls ``Record.__init__``.
    Records of the same class are equal when their field tuples are, and
    hash that tuple (a class with a mutable field sets ``__hash__ = None``);
    a record of another class is never equal.  The repr is
    ``Name(field=value, ...)`` over ``_repr_fields``, or every field if a
    class leaves it empty.  ``replace`` builds a copy with some fields
    changed, through the constructor, so its validation runs again.
    """

    __slots__ = ("_values",)
    _repr_fields: tuple[str, ...] = ()

    def __init__(self, *values):
        fields = self.__slots__
        if len(values) != len(fields):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(fields)} fields "
                f"{fields}, got {len(values)}"
            )
        for field, value in zip(fields, values):
            object.__setattr__(self, field, value)
        object.__setattr__(self, "_values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._repr_fields or self.__slots__
        )
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values

    def replace(self, **changes):
        values = tuple(changes.pop(f, v) for f, v in zip(self.__slots__, self._values))
        if changes:
            raise TypeError(f"{type(self).__qualname__} has no field {min(changes)!r}")
        return type(self)(*values)


# -- structured fractions ----------------------------------------------------------


def poly_sort_key(p: Polynomial) -> tuple:
    """Deterministic total order on polynomials (term list order, then coeffs)."""
    return tuple(sorted((term_key(m), c) for m, c in p.terms.items()))


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


def _ordered(counts: dict[Polynomial, int]) -> tuple[tuple[Polynomial, int], ...]:
    return tuple(sorted(counts.items(), key=lambda fm: poly_sort_key(fm[0])))


class StructuredFraction(Record):
    """numerator / prod f^m over the (f, m) pairs of ``denominator``: each f a
    sign-normalized linear form, each m positive, the pairs in the
    ``poly_sort_key`` order of their forms.  An empty denominator means a
    plain polynomial."""

    __slots__ = ("numerator", "denominator")

    @staticmethod
    def make(
        numerator: Polynomial | int,
        factors: Iterable[Polynomial] = (),
    ) -> StructuredFraction:
        """numerator / the product of the linear forms ``factors``, each counted
        per occurrence and sign-normalized, its sign moved to the numerator."""
        counts: dict[Polynomial, int] = {}
        sign = 1
        for f in factors:
            g, s = _normalize_linear_factor(f)
            sign *= s
            counts[g] = counts.get(g, 0) + 1
        num = _coerce(numerator) * sign
        if not num:
            return StructuredFraction(ZERO, ())
        return StructuredFraction(num, _ordered(counts))

    def is_polynomial(self) -> bool:
        return not self.denominator

    def as_polynomial(self) -> Polynomial:
        if self.denominator:
            raise ValueError("fraction has a nontrivial denominator")
        return self.numerator

    def reduced(self) -> StructuredFraction:
        """Cancel denominator forms that divide the numerator, one at a time;
        when the whole denominator divides, so does each form in turn."""
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
        return StructuredFraction(num, tuple(remaining))

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
    lcm: dict[Polynomial, int] = {}
    for fraction in fractions:
        for f, m in fraction.denominator:
            lcm[f] = max(lcm.get(f, 0), m)
    total = ZERO
    for fraction in fractions:
        own = dict(fraction.denominator)
        missing = ONE
        for f, m in lcm.items():
            extra = m - own.get(f, 0)
            if extra:
                missing = missing * f**extra
        total = total + fraction.numerator * missing
    return StructuredFraction(total, _ordered(lcm)).reduced()
