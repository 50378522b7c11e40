"""The immutable value classes on ``poly.Record``: equality, hash, repr,
immutability and ``replace``, class by class."""

import copy
import pickle

import pytest

from eqchow.ideal import GradedIdeal, GradedPiece, IdealComparison, compare_up_to
from eqchow.pipeline import AlphaFamily, RingPresentation, alpha_family, m01
from eqchow.poly import Record, StructuredFraction, make_mono, var
from eqchow.symfunc import RepRoots, UnsupportedModule
from eqchow.verify import Claim


def _claim_check():
    return True, {}


def _other_check():
    return False, {}


# Per class: a factory called twice for two equal but distinct values, and
# one field with a different value for ``replace``.
SAMPLES = {
    "GradedPiece": (
        lambda: GradedPiece(
            2, (make_mono([("c1", 2)]), make_mono([("c2", 1)])), ((1, 0),)
        ),
        "hnf",
        ((0, 1),),
    ),
    "IdealComparison": (
        lambda: IdealComparison(False, 3, 2, [{"degree": 0, "equal": True}]),
        "first_mismatch",
        3,
    ),
    "RingPresentation": (
        lambda: RingPresentation(
            GradedIdeal(["c1", "c2"], [var("c1") ** 2]),
            ({"step": "projective_bundle", "rank": 2},),
            4,
        ),
        "max_degree",
        5,
    ),
    "AlphaFamily": (
        lambda: AlphaFamily(2, alpha_family(2).polys),
        "rank",
        7,
    ),
    "StructuredFraction": (
        lambda: StructuredFraction.make(var("l1"), [var("l1") - var("l2")]),
        "numerator",
        var("l2"),
    ),
    "RepRoots": (lambda: RepRoots(3, "Sym2(E*)", -1), "k", 2),
    "Claim": (lambda: Claim("a-claim", 2, _claim_check, 3, True), "check", _other_check),
}
# A record holding a list or an ideal cannot be hashed, as before.
UNHASHABLE = {"IdealComparison", "RingPresentation"}


def _sample(name):
    make, field, value = SAMPLES[name]
    return make(), make(), field, value


def test_every_record_class_is_sampled():
    classes = Record.__subclasses__()
    names = {cls.__name__ for cls in classes if cls.__module__.startswith("eqchow.")}
    assert names == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
class TestRecord:
    def test_equal_fields_give_equal_values(self, name):
        a, b, _, _ = _sample(name)
        assert a._values == tuple(getattr(a, f) for f in type(a).__slots__)
        assert a is not b and a == b and not a != b
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_another_class_with_the_same_fields_differs(self, name):
        a, _, _, _ = _sample(name)
        cls = type(a)
        namespace = {"__slots__": cls.__slots__, "__init__": cls.__init__}
        twin_cls = type("Twin", (Record,), namespace)
        twin = twin_cls(*(getattr(a, f) for f in cls.__slots__))
        assert twin._values == a._values
        assert a != twin and twin != a

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        a, b, _, value = _sample(name)
        for field in type(a).__slots__:
            before = getattr(a, field)
            with pytest.raises(AttributeError):
                setattr(a, field, value)
            with pytest.raises(AttributeError):
                delattr(a, field)
            assert getattr(a, field) is before
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == b

    def test_replace_changes_only_the_named_fields(self, name):
        a, b, field, value = _sample(name)
        changed = a.replace(**{field: value})
        assert type(changed) is type(a) and changed != a and a == b
        for f in type(a).__slots__:
            assert getattr(changed, f) is (value if f == field else getattr(a, f))
        assert a.replace() == a
        with pytest.raises(TypeError):
            a.replace(no_such_field=1)

    def test_copy_and_pickle_round_trip(self, name):
        a, _, _, _ = _sample(name)
        assert copy.copy(a) == a and copy.deepcopy(a) == a
        if name != "Claim":  # a claim holds a function defined in a test module
            assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_wrong_number_of_fields_builds_nothing(name):
    a, _, _, _ = _sample(name)
    cls = type(a)
    for values in (a._values[:-1], a._values + (None,)):
        blank = cls.__new__(cls)
        with pytest.raises(TypeError, match=f"takes {len(a._values)} fields"):
            Record.__init__(blank, *values)
        for field in ("_values", *cls.__slots__):
            assert not hasattr(blank, field)
        if "__init__" not in cls.__dict__:  # the record's own constructor
            with pytest.raises(TypeError):
                cls(*values)


def test_repr_names_the_fields_and_hides_the_audit_trail():
    assert repr(RepRoots(3, "E*", 1)) == "RepRoots(rank=3, base='E*', k=1)"
    cmp = IdealComparison(False, 3, 2, [{"degree": 0, "equal": True}])
    assert repr(cmp) == "IdealComparison(equal=False, max_degree=3, first_mismatch=2)"


def test_replace_validates_again():
    with pytest.raises(UnsupportedModule):
        RepRoots(3, "E*").replace(rank=1)
    with pytest.raises(ValueError):
        alpha_family(3).replace(polys=tuple(reversed(alpha_family(3).polys)))


def test_equal_modules_share_one_root_tuple():
    assert RepRoots(4, "E*").roots is RepRoots(4, "E*").roots
    assert RepRoots(4, "E*", 1).roots != RepRoots(4, "E*").roots


def test_comparisons_of_the_same_ideals_are_equal():
    ideal = m01().relations
    smaller = GradedIdeal(ideal.variables, ideal.generators[:1])
    for lhs, rhs, equal in ((ideal, ideal, True), (ideal, smaller, False)):
        first = compare_up_to(lhs, rhs, 4)
        assert first.equal is equal
        assert first == compare_up_to(lhs, rhs, 4)
