"""Packed-monomial arithmetic against a reference written on (name, exponent)
pairs: a hypothesis property over random products and exact quotients."""

from hypothesis import given, settings, strategies as st

from eqchow.poly import Polynomial, divides, exact_divide, mono_pairs, var_key

# (name, exponent) pairs reference: a monomial is a tuple of pairs in the
# variable order, a polynomial a dict from such tuples to nonzero ints.
PAIR_NAMES = ("c1", "c3", "H", "l1", "l2", "l10", "xi")


def _pairs(exps):
    return tuple(sorted(((v, e) for v, e in exps.items() if e), key=lambda ve: var_key(ve[0])))


def _pair_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            exps = dict(ma)
            for v, e in mb:
                exps[v] = exps.get(v, 0) + e
            m = _pairs(exps)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


_pair_monos = st.dictionaries(
    st.sampled_from(PAIR_NAMES), st.integers(0, 4), max_size=4
).map(_pairs)
_pair_polys = st.dictionaries(_pair_monos, st.integers(-9, 9), max_size=6)
_points = st.fixed_dictionaries({v: st.integers(-6, 6) for v in PAIR_NAMES})


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_pair_polys, _pair_polys, _points)
def test_products_and_quotients_match_the_pairs_reference(a, b, point):
    pa, pb = Polynomial(a), Polynomial(b)
    product = pa * pb
    reference = _pair_mul(a, b)
    assert {mono_pairs(m): c for m, c in product.terms.items()} == reference
    assert product == Polynomial(reference)
    assert product.evaluate(point) == pa.evaluate(point) * pb.evaluate(point)
    if pb:
        assert exact_divide(product, pb) == pa
        assert divides(pb, product)
    if pa and len(pb) > 1:
        # a product plus a term off the lattice of pb's multiples
        off = product + Polynomial({_pairs({"t1": 1}): 1})
        assert not divides(pb, off)
