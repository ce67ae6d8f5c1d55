"""JSON task documents: scalar grammar, round trips, task dispatch."""

import json
import random
import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightfilt.document import (
    FORMAT_TAG,
    MAX_FAMILY_SIZE,
    Document,
    DocumentError,
    KNOWN_TASKS,
    centered_filtration_from_json,
    centered_filtration_to_json,
    emit_report,
    filtration_from_json,
    filtration_to_json,
    matrix_from_json,
    matrix_to_json,
    parse,
    parse_scalar,
    run_task,
    scalar_to_str,
    subspace_from_json,
    subspace_to_json,
    vector_from_json,
    vector_to_json,
)
from weightfilt import document, fixtures
from weightfilt.exact import GaussianRational, Matrix, Subspace
from weightfilt.filtration import Filtration
from weightfilt.fixtures import MAX_FIXTURE_SIZE
from weightfilt.monodromy import monodromy_filtration

from strategies import small_fractions

import strategies as strat
from test_cli import UNDETERMINED_RELATIVE_PAYLOAD


class TestScalarGrammar:
    @given(x=small_fractions)
    def test_rational_round_trip(self, x):
        assert parse_scalar(scalar_to_str(x)) == x

    @given(a=small_fractions, b=small_fractions)
    def test_gaussian_round_trip(self, a, b):
        z = GaussianRational(a, b)
        back = parse_scalar(scalar_to_str(z))
        if b == 0:
            assert back == a  # canonical form drops the vanishing imaginary part
        else:
            assert back == z

    @pytest.mark.parametrize(
        "text",
        [
            "2/4",      # not reduced
            "3/1",      # redundant denominator
            "1/0",      # zero denominator
            "-0",       # negative zero
            "0/2",      # unreduced zero
            "1/-2",     # sign in the denominator
            "1+0i",     # vanishing imaginary part must be dropped
            "1+-2i",    # sign belongs to the separator only
            "i",        # bare imaginary unit is not in the grammar
            "1.5",      # decimals are out
            " 1",       # whitespace is significant
            "",
            "+1",
        ],
    )
    def test_rejected_forms(self, text):
        with pytest.raises(DocumentError):
            parse_scalar(text)

    def test_rejection_carries_the_path(self):
        with pytest.raises(DocumentError) as exc:
            parse_scalar("2/4", "$.payload.matrix[0][1]")
        assert "$.payload.matrix[0][1]" in str(exc.value)

    def test_accepted_forms(self):
        assert parse_scalar("0") == Fraction(0)
        assert parse_scalar("-7/3") == Fraction(-7, 3)
        assert parse_scalar("2-3i") == GaussianRational(2, -3)
        assert parse_scalar("0+1/2i") == GaussianRational(0, Fraction(1, 2))

    def test_non_string_rejected(self):
        with pytest.raises(DocumentError):
            parse_scalar(1.5)


class TestContainerRoundTrips:
    @given(data=st.data())
    def test_matrix_round_trip(self, data):
        m = data.draw(strat.matrices(3, 2))
        assert matrix_from_json(matrix_to_json(m), "$") == m

    def test_vector_round_trip(self):
        v = (Fraction(1, 2), GaussianRational(0, -2), Fraction(0))
        assert vector_from_json(vector_to_json(v), "$") == v

    def test_ragged_matrix_rejected(self):
        with pytest.raises(DocumentError) as exc:
            matrix_from_json([["1", "2"], ["3"]], "$.m")
        assert "$.m" in str(exc.value)

    @given(data=st.data())
    def test_subspace_round_trip(self, data):
        s = data.draw(strat.subspaces(4))
        assert subspace_from_json(subspace_to_json(s), 4, "$") == s

    @given(data=st.data())
    def test_filtration_round_trip(self, data):
        f = data.draw(strat.filtrations(3, fractional=True))
        assert filtration_from_json(filtration_to_json(f), "$") == f
        recentered = Filtration(f.ambient_dim, f.steps, center=f.center + 1)
        assert recentered != f and recentered.same_subspaces(f)

    def test_centered_filtration_round_trip(self):
        from weightfilt.fixtures import fixture_Vk

        w = fixture_Vk(2).weight_filtration()
        assert centered_filtration_from_json(centered_filtration_to_json(w), "$") == w
        m = monodromy_filtration(fixture_Vk(2).lowering, center=2)
        assert all(type(k) is int for k in m.jumps() + (m.center,))

    def test_centered_filtration_rejects_fractional_index(self):
        with pytest.raises(ValueError, match="index 0 is not an integer"):
            centered_filtration_to_json(Filtration.trivial(2))

    def test_centered_filtration_rejects_fractional_center(self):
        w = Filtration(2, [(0, Subspace.full(2))], center=Fraction(1, 2))
        with pytest.raises(ValueError, match="center 1/2 is not an integer"):
            centered_filtration_to_json(w)

    def test_filtration_requires_spans(self):
        with pytest.raises(DocumentError):
            filtration_from_json(
                {"ambient_dim": 2, "steps": [{"index": "0", "basis": "nope"}]}, "$"
            )

    def test_gaussian_filtration_index_rejected(self):
        with pytest.raises(DocumentError) as exc:
            filtration_from_json(
                {"ambient_dim": 1, "steps": [{"index": "1+2i", "basis": [["1"]]}]}, "$.f"
            )
        assert "index" in str(exc.value)


class TestDocumentParsing:
    def test_parse_round_trip(self):
        doc = Document("fixture-info", {"name": "V2"})
        assert parse(doc.to_json()) == doc

    def test_known_tasks_are_fixed(self):
        assert len(KNOWN_TASKS) == 9
        with pytest.raises(DocumentError):
            Document("check-everything", {})

    def test_format_tag_enforced(self):
        bad = json.dumps({"format": "weightfilt.v0", "task": "fixture-info", "payload": {}})
        with pytest.raises(DocumentError) as exc:
            parse(bad)
        assert "$.format" in str(exc.value)

    def test_invalid_json_is_a_document_error(self):
        with pytest.raises(DocumentError):
            parse("{not json")

    def test_missing_payload(self):
        with pytest.raises(DocumentError):
            parse(json.dumps({"format": FORMAT_TAG, "task": "fixture-info"}))


def _monodromy_doc(matrix_rows, center=0):
    return Document(
        "check-monodromy",
        {"operator": matrix_rows, "center": center},
    )


class TestRunTask:
    def test_monodromy_report_shape(self):
        rep = run_task(_monodromy_doc([["0", "1"], ["0", "0"]]))
        assert rep["format"] == FORMAT_TAG
        assert rep["task"] == "check-monodromy"
        assert rep["verdict"] is True
        assert rep["details"]["filtration"]["graded_dims"] == {"-1": 1, "1": 1}

    def test_monodromy_rejects_non_nilpotent(self):
        with pytest.raises(DocumentError):
            run_task(_monodromy_doc([["1", "0"], ["0", "1"]]))

    def test_compat_reports_both_routes(self):
        e1, e2, diag = ["1", "0"], ["0", "1"], ["1", "1"]
        full = [["1", "0"], ["0", "1"]]
        payload = {
            "filtrations": [
                {
                    "ambient_dim": 2,
                    "steps": [
                        {"index": "0", "basis": [line]},
                        {"index": "1", "basis": full},
                    ],
                }
                for line in (e1, e2, diag)
            ],
        }
        rep = run_task(Document("check-compat", payload))
        assert rep["verdict"] is False
        d = rep["details"]
        assert d["subquotient_route"] == d["flatness_route"] == False
        assert d["agreement"] is True
        assert d["witness"] is not None

    def test_compat_positive_on_two_filtrations(self):
        full = [["1", "0"], ["0", "1"]]
        payload = {
            "filtrations": [
                {
                    "ambient_dim": 2,
                    "steps": [
                        {"index": "0", "basis": [line]},
                        {"index": "1", "basis": full},
                    ],
                }
                for line in (["1", "0"], ["0", "1"])
            ],
        }
        rep = run_task(Document("check-compat", payload))
        assert rep["verdict"] is True
        assert rep["details"]["agreement"] is True

    def test_fixture_info_dispatch(self):
        rep = run_task(Document("fixture-info", {"name": "tensor-2-2"}))
        assert rep["verdict"] is True
        assert rep["details"]["dim"] == 4

    def test_unknown_fixture_is_an_input_error(self):
        with pytest.raises(DocumentError):
            run_task(Document("fixture-info", {"name": "garbage"}))

    @pytest.mark.parametrize(
        "name,reason",
        [
            ("V64", "ambient dimension 65 exceeds"),
            ("V99999999", "ambient dimension 100000000 exceeds"),
            ("tensor-8-8-8", "ambient dimension 512 exceeds"),
            ("tensor-5-13", "ambient dimension 65 exceeds"),
            ("nilsson-65-1", "denominator 65 exceeds"),
        ],
    )
    def test_oversized_fixture_is_refused_before_building(self, monkeypatch, name, reason):
        def refuse(*args):
            raise AssertionError("built an oversized fixture")

        for builder in ("VkFixture", "TensorJordanFixture", "fixture_nilsson"):
            monkeypatch.setattr(fixtures, builder, refuse)
        with pytest.raises(DocumentError, match=reason) as err:
            run_task(Document("fixture-info", {"name": name}))
        assert err.value.path == "$.payload.name"

    @pytest.mark.parametrize("name", ["V63", "tensor-8-8", "tensor-4-4-4", "nilsson-64-0"])
    def test_fixtures_at_the_limit_are_built(self, name):
        assert run_task(Document("fixture-info", {"name": name}))["verdict"] is True

    @staticmethod
    def _family(task, count):
        payload = {"filtrations": [filtration_to_json(Filtration.trivial(1))] * count}
        if task == "koszul-homology":
            payload.update(sequence=[0, 1], multidegree=[0] * count)
        return Document(task, payload)

    @pytest.mark.parametrize("task", ["rees-summary", "koszul-homology"])
    def test_family_at_the_limit_is_run(self, task):
        assert run_task(self._family(task, MAX_FAMILY_SIZE))["verdict"] is True

    @pytest.mark.parametrize("task", ["check-compat", "koszul-homology", "rees-summary"])
    def test_family_above_the_limit_is_refused_before_building(self, monkeypatch, task):
        def refuse(*args):
            raise AssertionError("parsed a filtration of an oversized family")

        monkeypatch.setattr(document, "filtration_from_json", refuse)
        with pytest.raises(DocumentError, match=f"{MAX_FAMILY_SIZE + 1} filtrations exceed the limit") as err:
            run_task(self._family(task, MAX_FAMILY_SIZE + 1))
        assert err.value.path == "$.payload.filtrations"

    def test_open_bound_relative_filtration_has_a_verdict(self):
        report = run_task(Document("check-relative", UNDETERMINED_RELATIVE_PAYLOAD))
        assert report["verdict"] is True
        assert report["details"]["filtration"]["graded_dims"] == {"-5": 1, "-3": 1, "-2": 1, "-1": 1, "1": 1}


class TestEmitReport:
    def test_structured_output_is_stable_json(self):
        rep = run_task(_monodromy_doc([["0", "1"], ["0", "0"]]))
        out1 = emit_report(rep, "structured")
        out2 = emit_report(rep, "structured")
        assert out1 == out2
        assert json.loads(out1) == rep
        assert out1.endswith("\n")
        # keys are sorted, so serialization order cannot drift
        assert out1 == json.dumps(rep, sort_keys=True, indent=2) + "\n"

    def test_text_output_has_verdict_line(self):
        rep = run_task(_monodromy_doc([["0", "1"], ["0", "0"]]))
        text = emit_report(rep, "text")
        assert "pass" in text
        assert "check-monodromy" in text

    def test_unknown_format_rejected(self):
        rep = run_task(_monodromy_doc([["0", "1"], ["0", "0"]]))
        with pytest.raises(ValueError):
            emit_report(rep, "yaml")


KOSZUL_PAYLOAD = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "doc_koszul.json").read_text()
)["payload"]

_small_int_lists = st.lists(st.integers(min_value=-3, max_value=3), max_size=4)

# the zero map, e1 -> e2 and e2 -> e1 on the plane
_PLANE_OPERATORS = (
    [["0", "0"], ["0", "0"]],
    [["0", "0"], ["1", "0"]],
    [["0", "1"], ["0", "0"]],
)
_PLANE_PAIRINGS = (
    [["0", "1"], ["-1", "0"]],
    [["0", "1"], ["1", "0"]],
    [["1", "0"], ["0", "1"]],
)


def _plane_payload(degrees, operators, pairing):
    return {
        "ambient_dim": 2,
        "components": [
            {"degree": degrees[0], "basis": [["1", "0"]]},
            {"degree": degrees[1], "basis": [["0", "1"]]},
        ],
        "operators": operators,
        "pairing": pairing,
    }


@st.composite
def _plane_lefschetz_payloads(draw):
    """Graded planes whose degrees are arbitrary small int lists.

    Half of the draws keep both degrees and the operator list at one
    length, so that some of them get past the shape checks.
    """
    ops = st.sampled_from(_PLANE_OPERATORS)
    if draw(st.booleans()):
        first, second = draw(_small_int_lists), draw(_small_int_lists)
        operators = draw(st.lists(ops, max_size=3))
    else:
        size = draw(st.integers(min_value=1, max_value=2))
        same = st.lists(st.integers(min_value=-2, max_value=2), min_size=size, max_size=size)
        first, second = draw(same), draw(same)
        operators = draw(st.lists(ops, min_size=size, max_size=size))
    return _plane_payload((first, second), operators, draw(st.sampled_from(_PLANE_PAIRINGS)))


def _report_or_input_error(task, payload):
    """Run a document through `parse` and `run_task`; None on a DocumentError.

    Any other exception escapes and fails the calling test.
    """
    text = json.dumps({"format": FORMAT_TAG, "task": task, "payload": payload})
    try:
        report = run_task(parse(text))
    except DocumentError:
        return None
    assert report["task"] == task
    assert isinstance(report["verdict"], bool)
    return report


class TestDocumentFuzz:
    """Arbitrary small integer lists give a report or a DocumentError."""

    @given(sequence=_small_int_lists, multidegree=_small_int_lists)
    @example(sequence=[0, 0], multidegree=[1, 1])
    @example(sequence=[0, 1], multidegree=[1, 1])
    @settings(max_examples=150, deadline=None)
    def test_koszul_lists(self, sequence, multidegree):
        payload = dict(KOSZUL_PAYLOAD, sequence=sequence, multidegree=multidegree)
        report = _report_or_input_error("koszul-homology", payload)
        valid = (
            len(multidegree) == 2
            and all(0 <= v < 2 for v in sequence)
            and len(set(sequence)) == len(sequence)
        )
        assert (report is not None) == valid

    @given(payload=_plane_lefschetz_payloads())
    # degrees -1 and 1 are not the zero operator's weight grading
    @example(payload=_plane_payload(([-1], [1]), [_PLANE_OPERATORS[0]], _PLANE_PAIRINGS[0]))
    @settings(max_examples=150, deadline=None)
    def test_lefschetz_degrees(self, payload):
        _report_or_input_error("check-lefschetz", payload)

    def test_polarized_plane_reports(self):
        # N e1 = e2 lowers degree 1 to -1 and is isotropic for the pairing
        payload = _plane_payload(([1], [-1]), [_PLANE_OPERATORS[1]], _PLANE_PAIRINGS[0])
        assert _report_or_input_error("check-lefschetz", payload)["verdict"] is True

    @given(
        denominator=st.one_of(
            st.integers(min_value=-3, max_value=6),
            st.integers(min_value=MAX_FIXTURE_SIZE - 2, max_value=MAX_FIXTURE_SIZE + 2),
        ),
        order=st.integers(min_value=-3, max_value=3),
    )
    @example(denominator=3, order=-1)
    @example(denominator=MAX_FIXTURE_SIZE + 1, order=0)
    @settings(max_examples=60, deadline=None)
    def test_nilsson_demo_ints(self, denominator, order):
        payload = {"denominator": denominator, "order": order}
        report = _report_or_input_error("nilsson-demo", payload)
        assert (report is not None) == (1 <= denominator <= MAX_FIXTURE_SIZE and order >= 0)


def _lines_family():
    full = [["1", "0"], ["0", "1"]]
    return [
        {"ambient_dim": 2, "steps": [{"index": "0", "basis": [line]}, {"index": "1", "basis": full}]}
        for line in (["1", "0"], ["0", "1"], ["1", "1"])
    ]


def _jordan_sum(sizes):
    """Lowering operators of strings, ``e_j -> e_{j-1}``, as one block sum."""
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for m in sizes:
        for j in range(1, m):
            rows[off + j - 1][off + j] = 1
        off += m
    return Matrix(rows, n, n)


def _relative_case(case):
    """A pinned, an open or a refuted ``check-relative`` input, or the open
    one of `UNDETERMINED_RELATIVE_PAYLOAD`, which a greedy completion of the
    bounds fails to solve in most bases."""
    if case == "greedy-fails":
        payload = UNDETERMINED_RELATIVE_PAYLOAD
        return matrix_from_json(payload["operator"], "$"), centered_filtration_from_json(payload["filtration"], "$")
    if case == "pinned":
        return _jordan_sum([3, 2]), Filtration(5, [(0, Subspace.full(5))])
    if case == "open":
        return _jordan_sum([3]), monodromy_filtration(_jordan_sum([3]), center=1)
    # N = J2 (x) I_2 with adjacent L-jumps across which N is an isomorphism
    kernel = Subspace.span([(1, 0, 0, 0), (0, 0, 1, 0)], 4)
    return _jordan_sum([2, 2]), Filtration(4, [(0, kernel), (1, Subspace.full(4))])


class TestBasisChange:
    """A change of basis of the ambient space gives the same structured
    report on every compatibility task, on ``check-lefschetz`` and on the
    three monodromy tasks: verdicts, witnesses, box, certificates and every
    dimension depend on the input only up to isomorphism.  The report
    digests of the benchmark streams rely on this."""

    @staticmethod
    def _report(task, payload):
        return emit_report(run_task(Document(task, payload)), "structured")

    @given(m=strat.nilpotent_matrices(max_dim=5), center=st.integers(-2, 2), seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_conjugated_operator_gives_identical_monodromy_report(self, m, center, seed):
        g = strat.random_unimodular(random.Random(seed), m.rows, rounds=4)
        before = self._report("check-monodromy", {"operator": matrix_to_json(m), "center": center})
        moved = self._report("check-monodromy", {"operator": matrix_to_json(g * m * g.inverse()), "center": center})
        assert moved == before

    @pytest.mark.parametrize("case", ["pinned", "open", "greedy-fails", "refuted"])
    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_conjugated_relative_problem_gives_identical_report(self, case, seed):
        n, lfilt = _relative_case(case)
        g = strat.random_unimodular(random.Random(seed), n.rows, rounds=4)
        moved = Filtration(lfilt.ambient_dim, [(x, s.image_under(g)) for x, s in lfilt.steps], center=lfilt.center)
        reports = [
            self._report("check-relative", {"operator": matrix_to_json(op), "filtration": centered_filtration_to_json(lf)})
            for op, lf in ((n, lfilt), (g * n * g.inverse(), moved))
        ]
        assert reports[1] == reports[0]
        details = json.loads(reports[0])["details"]
        assert ("certificate" in details) == (case == "refuted")

    @pytest.mark.parametrize("case", ["holds", "differs", "refuted"])
    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_conjugated_family_gives_identical_iterated_report(self, case, seed):
        j2, j3 = _jordan_sum([2]), _jordan_sum([3])
        ops = {
            "holds": fixtures.fixture_tensor_jordan((2, 3)).operators(),
            "differs": [-j2, j2],
            "refuted": [j3, j3 * j3],
        }[case]
        g = strat.random_unimodular(random.Random(seed), ops[0].rows, rounds=4)
        gi = g.inverse()
        before, after = (
            self._report("check-iterated", {"operators": [matrix_to_json(o) for o in family]})
            for family in (ops, [g * o * gi for o in ops])
        )
        assert after == before
        report = json.loads(before)
        assert report["verdict"] == (case == "holds")
        assert ("certificate" in report["details"]) == (case == "refuted")

    @given(
        mf=strat.multifiltrations(),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_conjugated_family_gives_identical_reports(self, mf, seed, data):
        g = strat.random_unimodular(random.Random(seed), mf.ambient_dim, rounds=4)
        moved = [
            Filtration(f.ambient_dim, [(x, s.image_under(g)) for x, s in f.steps]) for f in mf.filtrations
        ]
        n = len(mf)
        extra = {
            "sequence": data.draw(st.permutations(range(n)).flatmap(lambda p: st.integers(0, n).map(lambda k: p[:k]))),
            "multidegree": data.draw(st.lists(st.integers(-2, 5), min_size=n, max_size=n)),
        }
        self._assert_same_reports([filtration_to_json(f) for f in mf.filtrations], [filtration_to_json(f) for f in moved], extra)

    def test_conjugated_lines_give_identical_reports(self):
        # the incompatible family, whose check-compat report carries a witness
        family = _lines_family()
        mf = [filtration_from_json(f, "$") for f in family]
        g = strat.random_unimodular(random.Random(7), 2, rounds=4)
        moved = [filtration_to_json(Filtration(2, [(x, s.image_under(g)) for x, s in f.steps])) for f in mf]
        assert moved != family
        reports = self._assert_same_reports(family, moved, {"sequence": [2, 0], "multidegree": [0, 0, 1]})
        assert "witness" in json.loads(reports["check-compat"])["details"]

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3).filter(
            lambda sizes: len(sizes) < 3 or max(sizes) < 3
        ),
        scale=st.sampled_from((Fraction(1), Fraction(7, 3), Fraction(-5, 2))),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_conjugated_lefschetz_structure_gives_identical_report(self, sizes, scale, seed):
        # plain, rescaled and negated pairings: the verdicts, the failing
        # degree and the positivity witness are invariants of the structure
        fx = fixtures.fixture_tensor_jordan(sizes)
        structure = (fx.graded_space(), fx.operators(), fx.pairing() * scale)
        g = strat.random_unimodular(random.Random(seed), fx.dim, rounds=4)

        def report(space, ops, pairing):
            payload = {
                "ambient_dim": space.ambient_dim,
                "components": [
                    {"degree": list(k), "basis": subspace_to_json(s)} for k, s in sorted(space.components.items())
                ],
                "operators": [matrix_to_json(n) for n in ops],
                "pairing": matrix_to_json(pairing),
            }
            return emit_report(run_task(Document("check-lefschetz", payload)), "structured")

        before = report(*structure)
        assert report(*strat.conjugate_structure(*structure, g)) == before
        details = json.loads(before)["details"]
        assert ("failure" in details) == (scale < 0)

    @staticmethod
    def _assert_same_reports(family, moved, koszul):
        reports = {}
        for task in ("check-compat", "koszul-homology", "rees-summary"):
            extra = koszul if task == "koszul-homology" else {}
            before = emit_report(run_task(Document(task, dict(extra, filtrations=family))), "structured")
            after = emit_report(run_task(Document(task, dict(extra, filtrations=moved))), "structured")
            assert after == before
            reports[task] = before
        return reports
