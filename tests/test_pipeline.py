"""The three ring-presentation pipelines, their cross-checks, and provenance
replay."""

import hashlib
import json

import pytest

from eqchow import pipeline
from eqchow.cli import run
from eqchow.ideal import DegreeBoundTooLow, GradedIdeal, compare_up_to
from eqchow.pipeline import (
    VerificationFailure,
    alpha_family,
    chern_series_divide,
    excise_veronese,
    m01,
    orthogonal,
    projective_bundle,
    reduced_quadrics,
    replay_provenance,
    torsor_quotient,
)
from eqchow.localization import veronese_pushforward
from eqchow.poly import ONE, ZERO, parse_polynomial, var
from eqchow.symfunc import RepRoots, build_roots, e_top, torsor_substitute

H = var("H")
c1, c2, c3 = var("c1"), var("c2"), var("c3")


class TestProjectiveBundle:
    def test_sym2_rank3(self):
        pres = projective_bundle(build_roots(3, "Sym2(E*)"))
        assert [v for v, _ in pres.variables] == ["c1", "c2", "c3", "H"]
        lhs = H**3 - 2 * c1 * H**2 + 4 * c2 * H - 8 * c3
        rhs = H**3 - 2 * c1 * H**2 + (c1**2 + c2) * H + (c3 - c1 * c2)
        assert pres.relations.generators == (lhs * rhs,)

    def test_dual_standard_rank3(self):
        pres = projective_bundle(build_roots(3, "E*"))
        assert pres.relations.generators == (H**3 - c1 * H**2 + c2 * H - c3,)

    def test_dual_standard_rank2(self):
        pres = projective_bundle(build_roots(2, "E*"))
        assert pres.relations.generators == (H**2 - c1 * H + c2,)


class TestExciseAndQuotient:
    def test_rank2_appended_classes(self):
        pres = projective_bundle(build_roots(2, "Sym2(E*)"))
        pres = excise_veronese(pres, method="localization")
        gens = pres.relations.generators
        assert gens[1] == 2 * (H - c1)
        assert gens[2] == H * (H - c1)

    def test_excision_idempotent_on_graded_pieces(self):
        pres = projective_bundle(build_roots(2, "Sym2(E*)"))
        once = excise_veronese(pres, method="closed_form")
        twice = excise_veronese(once, method="closed_form")
        for d in range(8):
            assert once.relations.lattice(d).hnf() == twice.relations.lattice(d).hnf()

    def test_torsor_relations_rank3_twist1(self):
        pres = projective_bundle(build_roots(3, "Sym2(E*)"))
        pres = excise_veronese(pres, method="localization")
        pres = torsor_quotient(pres, 1)
        gens = set(pres.relations.generators)
        assert {4 * c3, 2 * c1 * c3, c1**2 * c3} <= gens
        assert [v for v, _ in pres.variables] == ["c1", "c2", "c3"]

    def test_zero_twist_takes_constant_terms(self):
        pres = projective_bundle(build_roots(2, "Sym2(E*)"))
        pres = excise_veronese(pres, method="closed_form")
        pres = torsor_quotient(pres, 0)
        assert -2 * c1 in pres.relations.generators

    def test_methods_agree(self):
        for n in (2, 3, 4):
            a = excise_veronese(
                projective_bundle(build_roots(n, "Sym2(E*)")), "localization"
            )
            b = excise_veronese(
                projective_bundle(build_roots(n, "Sym2(E*)")), "closed_form"
            )
            assert a.relations.generators == b.relations.generators

    @pytest.mark.parametrize("module", ["E*", "det^1*Sym2(E*)"])
    def test_excision_needs_untwisted_sym2(self, module):
        # the squaring embedding lands in P(Sym2(E*)); any other bundle's
        # ring would get pushforwards that do not belong to it
        pres = projective_bundle(build_roots(3, module))
        for method in ("localization", "closed_form"):
            with pytest.raises(ValueError, match="excise_veronese needs P"):
                excise_veronese(pres, method)
        log = [
            dict(pres.provenance[0]),
            {"step": "excise_veronese", "rank": 3, "method": "localization", "hyperplane": "H"},
        ]
        with pytest.raises(ValueError, match="excise_veronese needs P"):
            replay_provenance(log)
        m01_log = [dict(s) for s in m01().provenance]
        m01_log[0]["module"] = module
        with pytest.raises(ValueError, match="excise_veronese needs P"):
            replay_provenance(m01_log)


class TestM01:
    def test_theorem_relations(self):
        pres = m01()
        assert [g.to_text() for g in pres.relations.generators] == [
            "4*c3",
            "2*c1*c3",
            "c1^2*c3",
        ]
        assert pres.max_degree == 12
        assert all(c["equal"] for c in pres.verification)

    def test_provenance_order(self):
        pres = m01()
        assert [s["step"] for s in pres.provenance] == [
            "projective_bundle",
            "excise_veronese",
            "torsor_quotient",
            "simplify_generators",
        ]

    def test_replay_is_bit_exact(self):
        pres = m01()
        rep = replay_provenance(pres.provenance)
        assert rep.relations.generators == pres.relations.generators
        assert json.dumps([g.to_json_obj() for g in rep.relations.generators]) == json.dumps(
            [g.to_json_obj() for g in pres.relations.generators]
        )

    def test_presentation_is_immutable(self):
        pres = m01()
        bound = pres.max_degree
        with pytest.raises(AttributeError):
            pres.max_degree = 3
        assert pres.max_degree == bound

    def test_degree3_piece_is_4c3(self):
        pres = m01()
        assert pres.relations.lattice(3).hnf() == ((0, 0, 4),)


# The presentations each command prints in the ranges below; their relations
# and simplified generators, and the pushforward polynomials, must read back
# through ``parse_polynomial``, whose grammar is exactly the text form
PRINTED = {
    "m01": lambda: [m01()],
    "quadrics": lambda: [reduced_quadrics(n, k) for n in range(2, 6) for k in range(4)],
    "orthogonal": lambda: [orthogonal(n, k) for n in range(2, 7) for k in range(4)],
}


class TestPrintedTextReadsBack:
    @pytest.mark.parametrize("command", sorted(PRINTED))
    def test_relations_and_simplified_generators(self, command):
        for pres in PRINTED[command]():
            for g in (*pres.relations.generators, *(pres.simplified or ())):
                assert parse_polynomial(g.to_text()) == g, g.to_text()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pushforward_polynomials(self, n):
        for r in range(n):
            p = veronese_pushforward(n, r)
            assert parse_polynomial(p.to_text()) == p, (n, r)


class TestReplayValidation:
    """Replay re-runs each logged step and requires the entry it logs to equal
    the one it was replayed from."""

    def test_hyperplane_logged_on_the_three_bundle_steps(self):
        logged = {s["step"]: s.get("hyperplane") for s in m01().provenance}
        assert logged == {
            "projective_bundle": "H",
            "excise_veronese": "H",
            "torsor_quotient": "H",
            "simplify_generators": None,
        }

    @pytest.mark.parametrize("index", [0, 1, 2])
    @pytest.mark.parametrize("hyperplane", ["K", None])
    def test_foreign_or_missing_hyperplane_rejected(self, index, hyperplane):
        log = [dict(s) for s in m01().provenance]
        if hyperplane is None:
            del log[index]["hyperplane"]
        else:
            log[index]["hyperplane"] = hyperplane
        with pytest.raises(ValueError, match=log[index]["step"]):
            replay_provenance(log)

    # (entry, parameter, value) put into an m01 log: each value has the wrong
    # JSON type for its parameter
    WRONG_TYPES = {
        "string-rank": (0, "rank", "3"),
        "int-module": (0, "module", 3),
        "bool-rank": (1, "rank", True),
        "list-step": (1, "step", ["excise_veronese"]),
        "string-k": (2, "k", "1"),
        "float-k": (2, "k", 1.0),
        "string-max-degree": (3, "max_degree", "12"),
        "int-record-only": (3, "record_only", 0),
    }

    @pytest.mark.parametrize(
        "malform",
        [
            "excision-first",
            "unknown-key",
            "missing-step",
            "second-start",
            "int-entry",
            "none-entry",
            "excision-rank-2",
            "excision-rank-missing",
            "excision-rank-float",
            "int-key",
            "bool-index",
            "false-index",
            "index-out-of-range",
            "excision-removed",
            "excision-after-drop",
            *WRONG_TYPES,
        ],
    )
    def test_malformed_log_is_a_value_error(self, malform):
        log = [dict(s) for s in m01().provenance]
        if malform == "excision-first":
            log = log[1:]
        elif malform == "unknown-key":
            log[0]["extra"] = 1
        elif malform == "missing-step":
            del log[1]["step"]
        elif malform == "second-start":
            log.insert(1, log[0])
        elif malform == "int-entry":
            log.insert(1, 5)
        elif malform == "none-entry":
            log = [None]
        elif malform == "excision-rank-2":
            log[1]["rank"] = 2
        elif malform == "excision-rank-missing":
            del log[1]["rank"]
        elif malform == "excision-rank-float":
            log[1]["rank"] = 3.0
        elif malform == "int-key":
            log[1][1] = "H"
        elif malform == "excision-removed":
            log = [dict(s) for s in reduced_quadrics(3, 0).provenance]
            del log[1]
        elif malform == "excision-after-drop":
            log = [dict(s) for s in reduced_quadrics(3, 0).provenance]
            log.insert(3, log.pop(1))
        elif malform in self.WRONG_TYPES:
            entry, key, value = self.WRONG_TYPES[malform]
            log[entry][key] = value
        else:
            log = [dict(s) for s in reduced_quadrics(3, 0).provenance]
            # the real index is 0, which equals False under plain ==
            log[3]["index"] = {"bool-index": True, "false-index": False}.get(malform, 99)
        with pytest.raises(ValueError):
            replay_provenance(log)

    @pytest.mark.parametrize("n, k, index", [(3, 0, 1), (3, 0, None), (2, 1, 0)])
    def test_changed_dropped_index_rejected(self, n, k, index):
        log = [dict(s) for s in reduced_quadrics(n, k).provenance]
        assert log[3]["step"] == "drop_redundant_bundle_relation"
        assert log[3]["index"] != index
        log[3]["index"] = index
        with pytest.raises(ValueError, match="drop_redundant_bundle_relation"):
            replay_provenance(log)

    def test_twisted_bundle_replays_bit_exactly(self):
        pres = projective_bundle(build_roots(3, "det^1*Sym2(E*)"))
        assert pres.provenance[0]["module"] == "det^1*Sym2(E*)"
        rep = replay_provenance(pres.provenance)
        assert rep.provenance == pres.provenance
        assert rep.relations.generators == pres.relations.generators
        assert rep.to_json_obj() == pres.to_json_obj()

    def test_excision_after_torsor_quotient_rejected(self):
        log = list(m01().provenance)
        log[1], log[2] = log[2], log[1]
        with pytest.raises(ValueError, match="no hyperplane variable"):
            replay_provenance(log)


class TestReducedQuadrics:
    def test_zero_twist_single_relation(self):
        for n in (2, 3, 4):
            pres = reduced_quadrics(n, 0)
            assert pres.relations.generators == (2 ** (n - 1) * e_top(n, 0),)

    def test_rank3_zero_twist_value(self):
        pres = reduced_quadrics(3, 0)
        assert pres.relations.generators == (4 * (c3 - c1 * c2),)

    def test_rank2_zero_twist(self):
        pres = reduced_quadrics(2, 0)
        assert pres.relations.generators == (-2 * c1,)
        assert compare_up_to(
            pres.relations, GradedIdeal(("c1", "c2"), [2 * c1]), pres.max_degree
        ).equal

    def test_rank3_twist1_equals_m01(self):
        cmp = compare_up_to(reduced_quadrics(3, 1).relations, m01().relations, 12)
        assert cmp.equal

    def test_relations_are_generator_family(self):
        for n in (2, 3, 4):
            for k in (1, 2, 3):
                pres = reduced_quadrics(n, k)
                family = [
                    g
                    for g in (
                        2 ** (n - 1 - r) * (k * c1) ** r * e_top(n, k)
                        for r in range(n)
                    )
                    if g
                ]
                assert list(pres.relations.generators) == family

    def test_even_twist_check_recorded(self):
        pres = reduced_quadrics(3, 2)
        names = [c["name"] for c in pres.verification]
        assert "even-twist-single-generator" in names
        assert all(c["equal"] for c in pres.verification)

    def test_replay_is_bit_exact(self):
        for n, k in ((2, 0), (3, 1), (4, 2), (2, 1)):
            pres = reduced_quadrics(n, k)
            rep = replay_provenance(pres.provenance)
            assert rep.relations.generators == pres.relations.generators

    @pytest.mark.parametrize("n", range(2, 8))
    def test_dropped_index_is_the_bundle_relations_position(self, n):
        # the reference rule: where the bundle relation at H = k*c1 stands
        # among the torsor step's relations
        bundle = projective_bundle(RepRoots(n, "Sym2(E*)"))
        excised = excise_veronese(bundle, method="closed_form")
        for k in range(6):
            image = torsor_substitute(bundle.relations.generators[0], k)
            gens = torsor_quotient(excised, k).relations.generators
            expected = next((i for i, g in enumerate(gens) if g == image), None)
            (entry,) = [
                s
                for s in reduced_quadrics(n, k).provenance
                if s["step"] == "drop_redundant_bundle_relation"
            ]
            assert entry["index"] == expected
            assert expected == (None if (n, k) == (2, 1) else 0)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", range(3, 8))
    def test_bundle_relation_outside_a_wrong_excision_fails_the_drop(
        self, monkeypatch, n, k
    ):
        # with every excision relation doubled, the ideal of the others
        # misses the bundle relation at odd k (at even k it still holds it),
        # so the containment check before the drop must fail
        push = pipeline.closed_form_pushforward
        monkeypatch.setattr(pipeline, "closed_form_pushforward", lambda n, r: 2 * push(n, r))
        with pytest.raises(VerificationFailure) as failure:
            reduced_quadrics(n, k)
        assert failure.value.report["name"] == "drop_redundant_bundle_relation"

    def test_rank2_twist1_degenerates_to_free_ring(self):
        pres = reduced_quadrics(2, 1)
        assert pres.relations.generators == ()

    def test_invalid_arguments(self):
        # the rank and twist are the rank rule's, tested at every entry point
        # by tests/test_symfunc.py::test_rank_domain; here the excision's own
        bundle = projective_bundle(RepRoots(3, "Sym2(E*)"))
        with pytest.raises(ValueError, match="unknown excision method 'residue'"):
            excise_veronese(bundle, method="residue")

    def test_one_cache_entry_per_pushforward(self):
        # the pipeline and a direct caller share one entry per (n, r)
        push = pipeline.closed_form_pushforward
        push.cache_clear()
        reduced_quadrics(4, 1)
        for r in range(4):
            push(4, r)
        assert push.cache_info().currsize == 4

    def test_golden_quadrics_rank6(self, capsys):
        # the Chern-ring route makes the rank-6 bundle relation a fraction of
        # a second; the rewrite from l1..l6 took about half a minute
        argv = ["quadrics", "--n", "6", "--k", "1", "--force", "--format", "json"]
        assert run(argv) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == (
            "b6c5714cbb33756e1f9dbbc2089b5698850ad530401451f8b81a3e1ae46c0d18"
        )

    def test_golden_quadrics_rank7(self, capsys):
        # the staircase determinant makes the rank-7 bundle relation a few
        # hundredths of a second, so rank 7 is pinned next to rank 6
        argv = ["quadrics", "--n", "7", "--k", "1", "--force", "--format", "json"]
        assert run(argv) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == (
            "8671064df579c50ab468e6e31cdd1ce6ad8a51d545b8958c12f276199fde1916"
        )

    def test_golden_quadrics_rank8(self, capsys):
        # the lattice columns at rank 8 run over c1..c8, weights up to 8, in
        # the order monomials_of_degree builds them: a wrong generation
        # order would change these bytes
        argv = ["quadrics", "--n", "8", "--k", "1", "--force", "--format", "json"]
        assert run(argv) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == (
            "4daa9a513df1b36a937f37b7660ca70270c173db80234dddb5c7b94d982bd9ec"
        )

    def test_golden_orthogonal_rank11_twist3(self, capsys):
        # dense lattices of dim up to 56 whose echelon entries reach about
        # 10,000 bits in the gcd merges: the dense side of the lattice kernel
        argv = ["orthogonal", "--n", "11", "--k", "3", "--force", "--format", "json"]
        assert run(argv) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == (
            "dabde601cf7c3036cc6e5fd39467e206135336199cb7d38e2f9dc4dfb1c836f3"
        )

    @pytest.mark.parametrize(
        "k, digest",
        [
            (3, "3311b22551bfe116f0d859b364ea01a779a658e5ffee091b8a6712ca1b6b704b"),
            (5, "b30e93b9ab79110794bb67ae9113447dc6c1aef3769a54af661a32c58154bec9"),
        ],
        ids=["k3", "k5"],
    )
    def test_golden_orthogonal_rank12(self, capsys, k, digest):
        # rank 12, where the echelon entries reach about 92,000 bits at
        # k = 3; the digests were recorded by the top-down HNF walk
        argv = ["orthogonal", "--n", "12", "--k", str(k), "--force", "--format", "json"]
        assert run(argv) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == digest


class TestAlphaFamily:
    def test_rank4_first_generator(self):
        assert alpha_family(4)[0] == 4 * H - 2 * c1

    def test_rank4_all_closed_forms(self):
        a1, a2, a3, a4 = alpha_family(4)
        assert a1 == 4 * H - 2 * c1
        assert a2 == 6 * H**2 - 3 * c1 * H
        assert a3 == 4 * H**3 - 3 * c1 * H**2 + 2 * c2 * H - 2 * c3
        assert a4 == H**4 - c1 * H**3 + c2 * H**2 - c3 * H

    def test_zero_specialization_pattern(self):
        for n in range(2, 9):
            for i, a in enumerate(alpha_family(n), start=1):
                at_zero = a.substitute("H", ZERO)
                if i % 2:
                    assert at_zero == -2 * var(f"c{i}")
                else:
                    assert at_zero == ZERO

    def test_rank3_elimination_identity(self):
        family = alpha_family(3)
        assert family[1] == H * family[0]

    def test_rank3_containment_for_small_twists(self):
        family = alpha_family(3)
        for k in range(6):
            a1k = family[0].substitute("H", k * c1)
            a2k = family[1].substitute("H", k * c1)
            ideal = GradedIdeal(("c1", "c2", "c3"), [a1k])
            if a2k:
                assert ideal.contains(a2k)

    def test_homogeneity_enforced(self, monkeypatch):
        # alpha_1 = H + 1 is not homogeneous; alpha_2 = H has degree 1
        real = pipeline.elementary_of_shifted(2, 1)
        for i, wrong in ((1, H + ONE), (2, H)):
            bad = real[:i] + [wrong + var(f"c{i}")] + real[i + 1 :]
            monkeypatch.setattr(pipeline, "elementary_of_shifted", lambda n, s: bad)
            match = f"alpha_{i} is not homogeneous of degree {i}"
            with pytest.raises(ValueError, match=match):
                alpha_family.__wrapped__(2)


class TestChernSeriesDivide:
    def test_first_component_is_alpha1(self):
        for n in range(2, 7):
            assert chern_series_divide(n)[0] == alpha_family(n)[0]

    def test_components_homogeneous(self):
        for n in (2, 3, 4, 5):
            for i, b in enumerate(chern_series_divide(n), start=1):
                assert b.is_homogeneous() and b.weighted_degree() == i

    def test_ideal_agreement_with_alpha(self):
        for n in range(2, 6):
            hvars = tuple(f"c{i}" for i in range(1, n + 1)) + ("H",)
            a = GradedIdeal(hvars, alpha_family(n))
            b = GradedIdeal(hvars, chern_series_divide(n))
            assert compare_up_to(a, b, 2 * n).equal

    def test_truncated_product_recovers_series(self):
        for n in (2, 3, 4):
            cs = [ONE] + [var(f"c{i}") for i in range(1, n + 1)]
            P = ZERO
            for j in range(n + 1):
                P = P + (-1) ** j * cs[j] * (1 + H) ** (n - j)
            R = ONE
            for j in range(1, n + 1):
                R = R + cs[j]
            series = ONE
            for b in chern_series_divide(n):
                series = series + b
            product = series * R
            for d in range(n + 1):
                got = product.homogeneous_components().get(d, ZERO)
                assert got == P.homogeneous_components().get(d, ZERO)


class TestOrthogonal:
    def test_rank4_twist1_simplified(self):
        pres = orthogonal(4, 1)
        assert [g.to_text() for g in pres.simplified] == [
            "2*c1",
            "c1^2",
            "2*c3",
            "c1*c3",
        ]

    def test_zero_twist_recovers_odd_chern_classes(self):
        for n in range(2, 9):
            pres = orthogonal(n, 0)
            expected = tuple(-2 * var(f"c{i}") for i in range(1, n + 1) if i % 2)
            assert pres.relations.generators == expected
            names = [c["name"] for c in pres.verification]
            assert "zero-twist-odd-chern-presentation" in names

    def test_rank4_twist3_raw_generators(self):
        pres = orthogonal(4, 3)
        assert [g.to_text() for g in pres.relations.generators] == [
            "10*c1",
            "45*c1^2",
            "81*c1^3 + 6*c1*c2 - 2*c3",
            "54*c1^4 + 9*c1^2*c2 - 3*c1*c3",
        ]

    def test_rank4_twist3_remark_adjudication(self):
        # the quoted simplified ideal does not match the alpha ideal; the
        # mismatch appears in degree 4 and is recorded, not asserted away
        vs = ("c1", "c2", "c3", "c4")
        raw = GradedIdeal(vs, [torsor_substitute(a, 3) for a in alpha_family(4)])
        quoted = GradedIdeal(
            vs,
            [10 * c1, 5 * c1**2, c1**3 + 6 * c1 * c2 - 2 * c3, c1**2 * c2 - c1 * c3],
        )
        cmp = compare_up_to(raw, quoted, 10)
        assert not cmp.equal and cmp.first_mismatch == 4

    def test_cross_check_runs_by_default_small_rank(self):
        pres = orthogonal(3, 2)
        names = [c["name"] for c in pres.verification]
        assert "alpha-vs-series-division" in names

    def test_cross_check_stops_above_its_rank(self):
        top = pipeline.SERIES_CROSS_CHECK_MAX_RANK
        for n, expected in ((top, True), (top + 1, False)):
            names = [c["name"] for c in orthogonal(n, 0).verification]
            assert ("alpha-vs-series-division" in names) == expected

    def test_replay(self):
        for n, k in ((3, 0), (4, 1), (2, 1)):
            pres = orthogonal(n, k)
            rep = replay_provenance(pres.provenance)
            assert rep.relations.generators == pres.relations.generators
            assert rep.simplified == pres.simplified


class TestDegreeBounds:
    def test_bounds_visible_in_presentations(self):
        assert m01().max_degree == 12
        assert reduced_quadrics(3, 1).max_degree == 9
        assert reduced_quadrics(5, 0).max_degree == 25
        assert orthogonal(4, 1).max_degree == 10

    @pytest.mark.parametrize(
        "build",
        [m01, lambda: reduced_quadrics(4, 1), lambda: orthogonal(4, 0)],
        ids=["m01", "quadrics", "orthogonal"],
    )
    def test_default_bound_checked_before_checks(self, build, monkeypatch):
        def too_low(ideal, max_degree):
            raise DegreeBoundTooLow(f"bound {max_degree} refused")

        monkeypatch.setattr(GradedIdeal, "require_degree_bound", too_low)
        monkeypatch.setattr(pipeline, "compare_up_to", None)  # must not be reached
        with pytest.raises(DegreeBoundTooLow):
            build()

    def test_low_bound_rejected_before_checks(self, monkeypatch):
        monkeypatch.setattr(pipeline, "compare_up_to", None)  # must not be reached
        with pytest.raises(DegreeBoundTooLow, match="bound 2 .* generator degree 3"):
            orthogonal(4, 0, max_degree=2)


class TestLatexAndJson:
    def test_m01_latex(self):
        latex = m01().to_latex()
        assert latex == (
            "\\mathbb{Z}[c_{1}, c_{2}, c_{3}]/"
            "\\left(4c_{3},\\, 2c_{1}c_{3},\\, c_{1}^{2}c_{3}\\right)"
        )

    def test_json_round_trips_relations(self):
        pres = orthogonal(4, 1)
        obj = pres.to_json_obj()
        blob = json.dumps(obj, sort_keys=True)
        assert json.loads(blob)["simplified"] == ["2*c1", "c1^2", "2*c3", "c1*c3"]
        rebuilt = replay_provenance(json.loads(blob)["provenance"])
        assert [g.to_text() for g in rebuilt.relations.generators] == obj["relations"]
