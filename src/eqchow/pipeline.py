"""Pipelines producing the Chow ring presentations.

Three assemblies over the lower layers:

* ``m01``              - the ring of the moduli stack of rational curves with
                         at most one node (rank 3, determinant-twist 1),
* ``reduced_quadrics`` - the rings of stacks of reduced quadrics for general
                         rank n and twist k,
* ``orthogonal``       - the rings of the orthogonal-type classifying stacks,
                         via the closed-form alpha generators and,
                         independently, a total-Chern-series division.

The hyperplane class is always H (``symfunc.HYPERPLANE``), the one hyperplane
variable; the bundle, excision and torsor steps log it as ``"hyperplane": "H"``.
The excision and the redundancy step read the rank from the ring's Chern
variables; the excision logs it, and the redundancy step logs the ``index`` of
the bundle relation it finds and drops.  The excision accepts only the ring of
P(Sym2(E*)), untwisted, the target of the squaring embedding.
Every pipeline records a replayable provenance log (step name + parameters).
``STEPS`` maps each step name to the one function that performs it, for the
pipelines and for ``replay_provenance``, which rebuilds the presentation
bit-exactly and checks each step against its own log entry, so a logged field
the step derives rather than takes must come back unchanged.  Every pipeline
runs its verification checks as it goes.  A failed check raises
VerificationFailure carrying the full per-degree lattice report; mismatches
are data, not crashes.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .ideal import GradedIdeal, IdealComparison, compare_up_to
from .localization import closed_form_pushforward, veronese_pushforward
from .poly import ONE, Polynomial, Record, ZERO
from .poly import parse_polynomial, var, var_index, var_weight
from .symfunc import HYPERPLANE, RepRoots, build_roots, c_vars, chern_classes
from .symfunc import chern_polynomial, e_top, elementary_of_shifted, torsor_substitute
from .symfunc import symmetric_to_chern  # noqa: F401, read by bench/test_bench.py


class VerificationFailure(Exception):
    """A pipeline cross-check failed; ``report`` holds the per-degree data."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


class RingPresentation(Record):
    """A graded relation ideal; ``variables`` are its ring's variables with
    their weights.

    ``provenance`` is an ordered log of construction steps; replaying it with
    ``replay_provenance`` reproduces ``relations`` exactly.  ``verification``
    summarizes the checks the pipeline ran; ``simplified`` is a small
    generating set for the same ideal when the pipeline computed one.
    """

    __slots__ = ("relations", "provenance", "max_degree", "verification", "simplified")

    def __init__(
        self,
        relations: GradedIdeal,
        provenance: tuple[dict, ...],
        max_degree: int | None = None,
        verification: tuple[dict, ...] = (),
        simplified: tuple[Polynomial, ...] | None = None,
    ):
        Record.__init__(
            self, relations, provenance, max_degree, verification, simplified
        )

    @property
    def variables(self) -> tuple[tuple[str, int], ...]:
        return tuple((v, var_weight(v)) for v in self.relations.variables)

    def to_text(self) -> str:
        vars_part = ", ".join(self.relations.variables)
        rels = ", ".join(g.to_text() for g in self.relations.generators)
        return f"Z[{vars_part}] / ({rels})"

    def to_latex(self) -> str:
        vars_part = ", ".join(var(name).to_latex() for name in self.relations.variables)
        rels = ",\\, ".join(g.to_latex() for g in self.relations.generators)
        return f"\\mathbb{{Z}}[{vars_part}]/\\left({rels}\\right)"

    def to_json_obj(self) -> dict:
        return {
            "variables": [{"name": n, "weight": w} for n, w in self.variables],
            "relations": [g.to_text() for g in self.relations.generators],
            "simplified": (
                [g.to_text() for g in self.simplified]
                if self.simplified is not None
                else None
            ),
            "provenance": list(self.provenance),
            "max_degree": self.max_degree,
            "verification": list(self.verification),
        }


def _require(name: str, cmp: IdealComparison) -> dict:
    if not cmp.equal:
        raise VerificationFailure(
            f"check {name!r} failed at degree {cmp.first_mismatch}",
            {"name": name, **cmp.to_json_obj()},
        )
    return {
        "name": name,
        "equal": cmp.equal,
        "max_degree": cmp.max_degree,
        "first_mismatch": cmp.first_mismatch,
    }


# -- construction steps ---------------------------------------------------------
#
# Each step is a function ``step(pres, **params) -> RingPresentation`` whose
# keyword parameters are exactly the ones it records in the provenance log, so
# ``replay_provenance`` is a fold over ``STEPS``.  The first step of a log
# ignores ``pres``.


def _after(pres, step: str, params: dict, relations: GradedIdeal, simplified=None):
    """The presentation after one step: new relations, the step appended to
    the provenance log."""
    provenance = ({"step": step, **params},)
    if pres is not None:
        provenance = pres.provenance + provenance
    return RingPresentation(relations, provenance, simplified=simplified)


def _rank(pres: RingPresentation) -> int:
    """The rank n of a ring over the Chern variables c1..cn."""
    return max((var_index(v, "c") or 0 for v in pres.relations.variables), default=0)


def _require_hyperplane(pres: RingPresentation) -> None:
    if HYPERPLANE not in pres.relations.variables:
        raise ValueError(f"presentation has no hyperplane variable {HYPERPLANE}")


def projective_bundle(module: RepRoots) -> RingPresentation:
    """Presentation of the equivariant ring of P(V): the Chern variables plus
    the hyperplane class H, modulo the total Chern relation of V."""
    return _after(
        None,
        "projective_bundle",
        {"module": module.label, "rank": module.rank, "hyperplane": HYPERPLANE},
        GradedIdeal(c_vars(module.rank) + (HYPERPLANE,), [chern_polynomial(module)]),
    )


def _projective_bundle_step(pres, module: str, rank: int):
    """``projective_bundle`` from its logged parameters (a log's first step)."""
    return projective_bundle(build_roots(rank, module))


def excise_veronese(
    pres: RingPresentation, method: str = "localization"
) -> RingPresentation:
    """Append the pushforwards of 1, K, ..., K^(rank-1) along the squaring
    embedding as new relations (excision of the rank-one locus); the rank is
    that of the ring's Chern variables c1..c_rank.  The squaring embedding
    lands in P(Sym2(E*)), so the log must open with that bundle, untwisted."""
    if method not in ("localization", "closed_form"):
        raise ValueError(f"unknown excision method {method!r}")
    _require_hyperplane(pres)
    bundle = (pres.provenance or ({},))[0]
    if (
        bundle.get("step") != "projective_bundle"
        or bundle.get("module") != RepRoots(bundle["rank"], "Sym2(E*)").label
    ):
        raise ValueError(f"excise_veronese needs P(Sym2(E*)), not the ring of {bundle}")
    rank = _rank(pres)
    push = veronese_pushforward if method == "localization" else closed_form_pushforward
    extra = [push(rank, r) for r in range(rank)]
    return _after(
        pres,
        "excise_veronese",
        {"rank": rank, "method": method, "hyperplane": HYPERPLANE},
        GradedIdeal(pres.relations.variables, list(pres.relations.generators) + extra),
    )


def torsor_quotient(pres: RingPresentation, k: int) -> RingPresentation:
    """Pass to the multiplicative-group torsor: substitute H -> k*c1 in every
    relation, drop relations that become zero, and remove H from the ring."""
    _require_hyperplane(pres)
    new_rels = [torsor_substitute(g, k) for g in pres.relations.generators]
    variables = [v for v in pres.relations.variables if v != HYPERPLANE]
    return _after(
        pres,
        "torsor_quotient",
        {"k": k, "hyperplane": HYPERPLANE},
        GradedIdeal(variables, new_rels),
    )


def _drop_redundant_bundle_relation(pres: RingPresentation) -> RingPresentation:
    """Remove the residual projective-bundle relation after checking it is
    contained in the ideal of the others.  After the torsor step it is the
    first relation exactly when that has degree C(n+1, 2): each excision
    relation 2^(n-1-r) H^r R(H) has degree C(n, 2) + r.  The logged ``index``
    is 0, or None when the relation vanished and nothing is dropped."""
    relations, index = pres.relations, None
    gens = relations.generators
    if gens and gens[0].weighted_degree() == comb(_rank(pres) + 1, 2):
        relations, index = GradedIdeal(relations.variables, gens[1:]), 0
        if not relations.contains(gens[0]):
            raise VerificationFailure(
                "projective-bundle relation is not redundant",
                {"name": "drop_redundant_bundle_relation", "relation": str(gens[0])},
            )
    return _after(pres, "drop_redundant_bundle_relation", {"index": index}, relations)


def _simplify_generators(
    pres: RingPresentation, max_degree: int, record_only: bool = False
) -> RingPresentation:
    """Compute a small generating set; the presentation's relations become
    that set unless ``record_only``, which only records it alongside."""
    simplified = pres.relations.simplified_generators(max_degree)
    return _after(
        pres,
        "simplify_generators",
        {"max_degree": max_degree, "record_only": record_only},
        pres.relations
        if record_only
        else GradedIdeal(pres.relations.variables, simplified),
        simplified=simplified,
    )


def _alpha_relations(pres, rank: int, k: int) -> RingPresentation:
    """The orthogonal-type relations: the alpha family at H = k*c1."""
    return _after(
        None,
        "alpha_relations",
        {"rank": rank, "k": k},
        GradedIdeal(c_vars(rank), alpha_family(rank).substituted(k)),
    )


# -- degree bounds ------------------------------------------------------------------


def default_degree_bound(kind: str, n: int) -> int:
    """Certification horizons, printed in every report: the underlying ideal
    identities hold in all degrees, the artifact certifies a finite range."""
    if kind == "m01":
        return 12
    if kind == "quadrics":
        return 2 * comb(n, 2) + n
    if kind == "orthogonal":
        return 2 * n + 2
    raise ValueError(f"unknown pipeline kind {kind!r}")


def _degree_bound(pres, kind: str, max_degree: int | None) -> int:
    """The certification bound of a pipeline whose relations are built: the
    default at the ring's rank unless ``max_degree`` is given, which must
    reach every generator (checked before the pipeline's costlier checks)."""
    if max_degree is None:
        return default_degree_bound(kind, _rank(pres))
    pres.relations.require_degree_bound(max_degree)
    return max_degree


def _certified(
    pres: RingPresentation, bound: int, checks: list, record_only: bool = False
) -> RingPresentation:
    """Final step of every pipeline: simplify up to the certification bound
    and attach the bound and the checks that passed.  The simplified set is
    what a report prints, so it is certified against the relations it
    replaces; that check is not listed, so correct outputs do not change."""
    relations = pres.relations
    pres = _simplify_generators(pres, bound, record_only)
    simplified = GradedIdeal(relations.variables, pres.simplified)
    _require("simplified-generators", compare_up_to(relations, simplified, bound))
    return pres.replace(max_degree=bound, verification=tuple(checks))


# -- the rank-3 node stack ------------------------------------------------------------

# The theorem's relations for the at-most-one-node stack, in canonical text form.
M01_RELATIONS = ("4*c3", "2*c1*c3", "c1^2*c3")


def m01(max_degree: int | None = None) -> RingPresentation:
    """Chow ring of the stack of rational curves with at most one node.

    Runs the honest localization pipeline at rank 3 and twist 1, simplifies,
    and certifies the result against the ideal (4c3, 2c1c3, c1^2 c3).
    """
    pres = projective_bundle(RepRoots(3, "Sym2(E*)"))
    pres = excise_veronese(pres, method="localization")
    pres = torsor_quotient(pres, 1)
    bound = _degree_bound(pres, "m01", max_degree)
    literal = GradedIdeal(
        pres.relations.variables, [parse_polynomial(t) for t in M01_RELATIONS]
    )
    checks = [
        _require(
            "m01-relations-match-literal-ideal",
            compare_up_to(pres.relations, literal, bound),
        )
    ]
    return _certified(pres, bound, checks)


# -- reduced quadrics ------------------------------------------------------------------


def quadric_family(n: int, k: int) -> list[Polynomial]:
    """The closed generator family {2^(n-1-r) (k c1)^r e_top(n,k) : 0 <= r < n}
    of the reduced-quadric ring; its first member is 2^(n-1) e_top(n,k)."""
    c1, e = var("c1"), e_top(n, k)
    return [2 ** (n - 1 - r) * (k * c1) ** r * e for r in range(n)]


def reduced_quadrics(
    n: int, k: int, max_degree: int | None = None
) -> RingPresentation:
    """Chow ring of the stack of reduced quadrics in P^(n-1) with twist k.

    The pipeline relations are cross-checked against ``quadric_family(n, k)``;
    for even k its single generator 2^(n-1) e_top(n,k) is verified to give the
    same ideal.
    """
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    pres = projective_bundle(RepRoots(n, "Sym2(E*)"))
    pres = excise_veronese(pres, method="closed_form")
    pres = torsor_quotient(pres, k)
    pres = _drop_redundant_bundle_relation(pres)
    bound = _degree_bound(pres, "quadrics", max_degree)

    family = quadric_family(n, k)
    targets = {"quadrics-relations-match-generator-family": family}
    if k % 2 == 0:
        targets["even-twist-single-generator"] = family[:1]
    variables = pres.relations.variables
    checks = [
        _require(name, compare_up_to(pres.relations, GradedIdeal(variables, g), bound))
        for name, g in targets.items()
    ]
    return _certified(pres, bound, checks, record_only=True)


# -- orthogonal-type classifying stacks ---------------------------------------------------


class AlphaFamily(Record):
    """The closed-form relation polynomials for the orthogonal-type rings:
    alpha_i is homogeneous of degree i, with an extra -2c_i term exactly when
    i is odd, so alpha_i(0) is -2c_i for odd i and 0 for even i."""

    __slots__ = ("rank", "polys")

    def __init__(self, rank: int, polys: tuple[Polynomial, ...]):
        for i, a in enumerate(polys, start=1):
            if a.weighted_degree() != i or not a.is_homogeneous():
                raise ValueError(f"alpha_{i} is not homogeneous of degree {i}")
        Record.__init__(self, rank, polys)

    def substituted(self, k: int) -> list[Polynomial]:
        return [torsor_substitute(a, k) for a in self.polys]


@lru_cache(maxsize=None)
def alpha_family(n: int) -> AlphaFamily:
    """alpha_i(H) = e_i(H + l1, ..., H + ln) - c_i, that is
    sum_{j<i} binom(n-j, i-j) (-1)^j c_j H^(i-j), minus 2c_i for odd i."""
    if n < 2:
        raise ValueError("need n >= 2")
    e, cs = elementary_of_shifted(n, 1), chern_classes(n)
    return AlphaFamily(n, tuple(e[i] - cs[i] for i in range(1, n + 1)))


def chern_series_divide(n: int) -> tuple[Polynomial, ...]:
    """First n graded components of the formal series P/R, where P is the
    total Chern class of the twisted dual bundle and R that of the standard
    bundle (c_0 = 1).

    Both series are handled as graded component tuples; the division is the
    degree-ascending recursion beta_i = P_i - sum_{j<i} beta_j R_(i-j).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    H, cs = var(HYPERPLANE), chern_classes(n)
    P = sum(((-1) ** j * cs[j] * (1 + H) ** (n - j) for j in range(n + 1)), start=ZERO)
    P_parts = P.homogeneous_components()
    betas = [ONE]
    for i in range(1, n + 1):
        lower = sum((betas[j] * cs[i - j] for j in range(i)), start=ZERO)
        betas.append(P_parts.get(i, ZERO) - lower)
    return tuple(betas[1:])


# Largest rank at which ``orthogonal`` checks alpha against the series division
SERIES_CROSS_CHECK_MAX_RANK = 5


def orthogonal(n: int, k: int, max_degree: int | None = None) -> RingPresentation:
    """Chow ring of the classifying stack of the twisted orthogonal group.

    Relations are the alpha_i evaluated at H = k*c1.  Up to rank
    SERIES_CROSS_CHECK_MAX_RANK the alpha generators are verified to generate
    the same ideal as the series-division generators before substituting; for
    k = 0 the presentation is certified against (2c1, 2c3, 2c5, ...).
    """
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")

    pres = _alpha_relations(None, n, k)
    bound = _degree_bound(pres, "orthogonal", max_degree)
    variables = pres.relations.variables
    checks = []
    if n <= SERIES_CROSS_CHECK_MAX_RANK:
        hvars = variables + (HYPERPLANE,)
        alpha_ideal = GradedIdeal(hvars, alpha_family(n).polys)
        beta_ideal = GradedIdeal(hvars, chern_series_divide(n))
        checks.append(
            _require(
                "alpha-vs-series-division",
                compare_up_to(alpha_ideal, beta_ideal, 2 * n),
            )
        )
    if k == 0:
        odd = [2 * var(v) for v in c_vars(n)[::2]]
        checks.append(
            _require(
                "zero-twist-odd-chern-presentation",
                compare_up_to(pres.relations, GradedIdeal(variables, odd), bound),
            )
        )
    return _certified(pres, bound, checks, record_only=True)


# -- provenance replay -----------------------------------------------------------------

STEPS = {
    "projective_bundle": _projective_bundle_step,
    "excise_veronese": excise_veronese,
    "torsor_quotient": torsor_quotient,
    "drop_redundant_bundle_relation": _drop_redundant_bundle_relation,
    "simplify_generators": _simplify_generators,
    "alpha_relations": _alpha_relations,
}
# The steps that start a log; every other step transforms the one before it.
FIRST_STEPS = frozenset({"projective_bundle", "alpha_relations"})
# The JSON types a logged field may have (exact types, so a bool is no int)
PARAM_TYPES = {
    "hyperplane": (str,),
    "rank": (int,),
    "k": (int,),
    "max_degree": (int,),
    "index": (int, type(None)),
    "module": (str,),
    "method": (str,),
    "record_only": (bool,),
}


def replay_provenance(steps) -> RingPresentation:
    """Rebuild a presentation from its provenance log by running each logged
    step again, the redundancy containment check included.

    The log must open with one of ``FIRST_STEPS`` and contain no other; each
    entry is a dict naming a known step, and each logged field has a type in
    ``PARAM_TYPES``.  The fields that are the step's parameters are passed to
    it; the others (the hyperplane, the excision rank, the dropped index)
    are derived by the step.  Each step must log exactly the entry it was
    replayed from, so a missing, unknown or foreign field is rejected.  Any
    malformed log raises ValueError.  Only construction steps participate;
    verification summaries are not part of provenance.  The result's
    relations are bit-exact equal to the original presentation's.
    """
    from inspect import signature  # only replay needs it; the CLI start-up skips it

    pres: RingPresentation | None = None
    for step in steps:
        if not isinstance(step, dict):
            raise ValueError(f"provenance entry {step!r} is not a dict")
        params = dict(step)
        name = params.pop("step", None)
        if not isinstance(name, str) or name not in STEPS:
            raise ValueError(f"unknown provenance step {name!r} in {step}")
        if (pres is None) != (name in FIRST_STEPS):
            where = "start" if pres is None else "follow another step"
            raise ValueError(f"step {name!r} cannot {where} a provenance log")
        for key, value in params.items():
            if type(value) not in PARAM_TYPES.get(key, ()):
                raise ValueError(
                    f"step {name!r} logs {key} = {value!r}: unknown field or wrong type"
                )
        sig = signature(STEPS[name])
        params = {k: v for k, v in params.items() if k in sig.parameters}
        try:
            sig.bind(pres, **params)
        except TypeError as exc:
            raise ValueError(f"step {name!r} has wrong parameters: {exc}") from None
        pres = STEPS[name](pres, **params)
        if pres.provenance[-1] != step:
            raise ValueError(
                f"step {name!r} logs {pres.provenance[-1]}, not its entry {step}"
            )
    if pres is None:
        raise ValueError("empty provenance log")
    return pres
