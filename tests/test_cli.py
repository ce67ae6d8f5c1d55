"""Command-line behaviour: exit codes, stdin, golden transcripts."""

import json
import pathlib
import random

import pytest
from click.testing import CliRunner

from weightfilt.cli import main
from weightfilt.document import (
    centered_filtration_from_json,
    centered_filtration_to_json,
    matrix_from_json,
    matrix_to_json,
)
from weightfilt.filtration import Filtration

from strategies import random_unimodular

GOLDEN = pathlib.Path(__file__).parent / "golden"

# The bound squeeze leaves freedom in the relative filtration of this
# operator over this L, and a greedy completion of the bounds fails
# certification in most bases; the construction decides it in every basis.
UNDETERMINED_RELATIVE_PAYLOAD = {
    "operator": [
        ["0", "-1", "0", "0", "0"],
        ["0", "0", "1", "0", "-1"],
        ["0", "0", "0", "0", "1"],
        ["0", "0", "0", "0", "-1"],
        ["0", "0", "0", "0", "0"],
    ],
    "filtration": {
        "ambient_dim": 5,
        "steps": [
            {"index": -3, "basis": [["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"], ["0", "0", "1", "-1", "0"]]},
            {"index": -2, "basis": [[str(int(i == j)) for j in range(5)] for i in range(4)]},
            {"index": 1, "basis": [[str(int(i == j)) for j in range(5)] for i in range(5)]},
        ],
    },
}


@pytest.fixture()
def runner():
    return CliRunner()


def _golden(name):
    return (GOLDEN / name).read_text()


class TestExitCodes:
    def test_pass_is_zero(self, runner):
        res = runner.invoke(main, ["check", "monodromy", "--input", str(GOLDEN / "doc_monodromy_pass.json")])
        assert res.exit_code == 0

    def test_negative_verdict_is_one(self, runner):
        res = runner.invoke(main, ["check", "compat", "--input", str(GOLDEN / "doc_compat_fail.json")])
        assert res.exit_code == 1
        # a failing verdict is still a successful computation: report on stdout
        assert "verdict: FAIL" in res.output

    def test_missing_file_is_two(self, runner):
        res = runner.invoke(main, ["check", "monodromy", "--input", "/nonexistent.json"])
        assert res.exit_code == 2
        assert "input error" in res.stderr

    def test_wrong_task_is_two(self, runner):
        res = runner.invoke(main, ["check", "compat", "--input", str(GOLDEN / "doc_monodromy_pass.json")])
        assert res.exit_code == 2
        assert "expected 'check-compat'" in res.stderr

    def test_invalid_json_is_two(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        res = runner.invoke(main, ["check", "monodromy", "--input", str(bad)])
        assert res.exit_code == 2

    def test_math_precondition_is_two(self, runner, tmp_path):
        doc = {
            "format": "weightfilt.v1",
            "task": "check-monodromy",
            "payload": {"operator": [["1", "0"], ["0", "1"]]},
        }
        p = tmp_path / "notnil.json"
        p.write_text(json.dumps(doc))
        res = runner.invoke(main, ["check", "monodromy", "--input", str(p)])
        assert res.exit_code == 2
        assert "input error" in res.stderr

    def test_repeated_koszul_variable_is_two(self, runner, tmp_path):
        doc = json.loads((GOLDEN / "doc_koszul.json").read_text())
        doc["payload"]["sequence"] = [0, 0]
        p = tmp_path / "repeat.json"
        p.write_text(json.dumps(doc))
        res = runner.invoke(main, ["koszul", "--input", str(p)])
        assert res.exit_code == 2
        assert "input error: $.payload.sequence: variable sequence must not repeat" in res.stderr

    def test_grading_not_of_weight_type_is_two(self, runner, tmp_path):
        # the zero operator's weight grading is all in degree 0, so no sl2
        # triple completes it on the degrees -1 and 1
        doc = {
            "format": "weightfilt.v1",
            "task": "check-lefschetz",
            "payload": {
                "ambient_dim": 2,
                "components": [
                    {"degree": [-1], "basis": [["1", "0"]]},
                    {"degree": [1], "basis": [["0", "1"]]},
                ],
                "operators": [[["0", "0"], ["0", "0"]]],
                "pairing": [["0", "1"], ["-1", "0"]],
            },
        }
        p = tmp_path / "not_weight.json"
        p.write_text(json.dumps(doc))
        res = runner.invoke(main, ["check", "lefschetz", "--input", str(p)])
        assert res.exit_code == 2
        assert "input error: $.payload: no sl2 completion" in res.stderr


    def test_open_bound_relative_filtration_is_zero_in_every_basis(self, runner, tmp_path):
        n = matrix_from_json(UNDETERMINED_RELATIVE_PAYLOAD["operator"], "$")
        lfilt = centered_filtration_from_json(UNDETERMINED_RELATIVE_PAYLOAD["filtration"], "$")
        outputs = set()
        for seed in range(60):
            g = random_unimodular(random.Random(seed), n.rows, rounds=3)
            moved = Filtration(lfilt.ambient_dim, [(x, s.image_under(g)) for x, s in lfilt.steps])
            payload = {"operator": matrix_to_json(g * n * g.inverse()), "filtration": centered_filtration_to_json(moved)}
            p = tmp_path / f"relative_{seed}.json"
            p.write_text(json.dumps({"format": "weightfilt.v1", "task": "check-relative", "payload": payload}))
            res = runner.invoke(main, ["check", "relmono", "--input", str(p), "--format", "structured"])
            assert res.exit_code == 0, res.stderr
            outputs.add(res.output)
        assert len(outputs) == 1
        assert json.loads(outputs.pop())["verdict"] is True

    @pytest.mark.parametrize(
        "args,path",
        [
            (["fixture", "V64"], "$.payload.name"),
            (["fixture", "tensor-5-13"], "$.payload.name"),
            (["fixture", "nilsson-65-1"], "$.payload.name"),
            (["nilsson", "demo", "-q", "65"], "$.payload.denominator"),
        ],
    )
    def test_oversized_fixture_is_two(self, runner, args, path):
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert f"input error: {path}:" in res.stderr
        assert "exceeds the limit 64" in res.stderr


    def test_oversized_family_is_two(self, runner, tmp_path):
        family = {"ambient_dim": 1, "steps": [{"index": "0", "basis": [["1"]]}]}
        doc = {"format": "weightfilt.v1", "task": "check-compat", "payload": {"filtrations": [family] * 9}}
        p = tmp_path / "family.json"
        p.write_text(json.dumps(doc))
        res = runner.invoke(main, ["check", "compat", "--input", str(p)])
        assert res.exit_code == 2
        assert "input error: $.payload.filtrations: 9 filtrations exceed the limit 8" in res.stderr

class TestStdin:
    def test_dash_reads_stdin(self, runner):
        text = (GOLDEN / "doc_monodromy_pass.json").read_text()
        res = runner.invoke(main, ["check", "monodromy", "--input", "-"], input=text)
        assert res.exit_code == 0
        assert "verdict: pass" in res.output


class TestGoldenTranscripts:
    """Byte-for-byte output stability for every rendering path."""

    CASES = [
        ("monodromy_structured.txt", ["check", "monodromy", "--input", str(GOLDEN / "doc_monodromy_pass.json"), "--format", "structured"], 0),
        ("compat_fail_structured.txt", ["check", "compat", "--input", str(GOLDEN / "doc_compat_fail.json"), "--format", "structured"], 1),
        ("compat_fail_text.txt", ["check", "compat", "--input", str(GOLDEN / "doc_compat_fail.json")], 1),
        ("koszul_structured.txt", ["koszul", "--input", str(GOLDEN / "doc_koszul.json"), "--format", "structured"], 0),
        ("fixture_v2_text.txt", ["fixture", "V2"], 0),
        ("nilsson_demo_structured.txt", ["nilsson", "demo", "-q", "3", "--order", "1", "--format", "structured"], 0),
    ]

    @pytest.mark.parametrize("name,args,code", CASES, ids=[c[0] for c in CASES])
    def test_output_matches_golden(self, runner, name, args, code):
        res = runner.invoke(main, args)
        assert res.exit_code == code
        assert res.output == _golden(name)

    def test_structured_outputs_are_valid_json(self, runner):
        for name, args, _ in self.CASES:
            if "structured" not in name:
                continue
            parsed = json.loads(_golden(name))
            assert parsed["format"] == "weightfilt.v1"


class TestOtherCommands:
    def test_rees_summary(self, runner):
        res = runner.invoke(main, ["rees", "--input", str(GOLDEN / "doc_koszul.json")])
        # rees wants its own task name; the koszul doc must be rejected
        assert res.exit_code == 2

    def test_rees_summary_runs(self, runner, tmp_path):
        doc = json.loads((GOLDEN / "doc_koszul.json").read_text())
        doc["task"] = "rees-summary"
        del doc["payload"]["sequence"]
        del doc["payload"]["multidegree"]
        p = tmp_path / "rees.json"
        p.write_text(json.dumps(doc))
        res = runner.invoke(main, ["rees", "--input", str(p), "--format", "structured"])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["task"] == "rees-summary"
        assert rep["details"]["piece_dims"]

    def test_fixture_unknown_name(self, runner):
        res = runner.invoke(main, ["fixture", "nonsense"])
        assert res.exit_code == 2

    def test_nilsson_demo_bad_denominator(self, runner):
        res = runner.invoke(main, ["nilsson", "demo", "-q", "0"])
        assert res.exit_code == 2

    def test_nilsson_demo_negative_order_is_two(self, runner):
        res = runner.invoke(main, ["nilsson", "demo", "-q", "3", "--order", "-1"])
        assert res.exit_code == 2
        assert "$.payload.order" in res.stderr

    def test_selfcheck_passes(self, runner):
        res = runner.invoke(main, ["selfcheck", "--seed", "3", "--max-dim", "4", "--rounds", "8"])
        assert res.exit_code == 0
        assert "selfcheck" in res.output

    def test_help_lists_subcommands(self, runner):
        res = runner.invoke(main, ["--help"])
        assert res.exit_code == 0
        for cmd in ("check", "koszul", "rees", "nilsson", "fixture", "selfcheck"):
            assert cmd in res.output
