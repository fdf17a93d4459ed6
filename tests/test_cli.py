"""Command-line front end: shipped problem files reproduce their golden
values, output is byte-deterministic, the structured format round-trips,
and every documented exit code is reachable."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import coincidence_kit
from coincidence_kit import abelian, cli, exact_linalg, finite
from coincidence_kit.abelian import AbelianSystem, stacked_difference
from coincidence_kit.cardinal import Cardinal
from coincidence_kit.exact_linalg import IntMatrix
from coincidence_kit.finite import cyclic_group, twisted_reidemeister, FiniteHom
from conftest import count_kernel_calls
from golden_cases import MODES, PROBLEM_FILES

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_structured(capsys, path, *flags):
    code, out, err = run_cli(
        capsys, "compute", str(path), "--format", "structured", *flags
    )
    assert code == 0, err
    return json.loads(out)


# -- shipped problems -------------------------------------------------------------


class TestShippedProblems:
    def test_every_shipped_file_computes_with_oracle(self, capsys):
        files = sorted(PROBLEMS.glob("*.json"))
        assert len(files) == 7
        for path in files:
            code, out, err = run_cli(capsys, "compute", str(path), "--oracle")
            assert code == 0, (path, err)
            assert "mismatch" not in out

    def test_worked_normal_form(self, capsys):
        doc = run_structured(capsys, PROBLEMS / "snf_worked.json", "--oracle")
        assert doc["value"] == 2
        assert doc["intermediates"]["divisors"] == [1, 2]
        assert doc["oracle_status"] == "agreed"

    def test_torus_family(self, capsys):
        doc = run_structured(capsys, PROBLEMS / "example2_torus.json", "--oracle")
        assert doc["value"] == 10
        assert doc["pairwise"] == [1, 2, 1]
        assert doc["intermediates"]["ker_psi_order"] == 5
        assert "4 does NOT divide 10" in doc["intermediates"]["divisibility"]
        assert doc["oracle_status"] == "agreed"

    def test_poincare_product(self, capsys):
        doc = run_structured(capsys, PROBLEMS / "example1_poincare.json", "--oracle")
        assert doc["value"] == 120
        assert doc["pairwise"] == [9, 1]
        assert doc["intermediates"]["tuple_space"] == 14400
        assert doc["intermediates"]["class_size_histogram"] == [[120, 120]]
        assert "9 does NOT divide 120" in doc["intermediates"]["divisibility"]
        assert doc["oracle_status"] == "agreed"

    def test_nilmanifold_triple(self, capsys):
        doc = run_structured(
            capsys, PROBLEMS / "example3_nilmanifold.json", "--oracle"
        )
        assert doc["value"] == 2
        assert doc["pairwise"] == [2, 1]
        assert doc["intermediates"]["quotient_count"] == 1
        assert doc["intermediates"]["sublattice_count"] == 2
        assert doc["intermediates"]["im_delta"] == 1
        assert doc["oracle_status"] == "agreed"

    def test_heisenberg_pair(self, capsys):
        doc = run_structured(capsys, PROBLEMS / "heisenberg_pair.json", "--oracle")
        assert doc["value"] == 16
        assert doc["pairwise"] == [16]
        assert doc["oracle_status"] == "agreed"

    def test_heisenberg_identity_pair(self, capsys):
        doc = run_structured(
            capsys, PROBLEMS / "heisenberg_identity_pair.json", "--oracle"
        )
        assert doc["value"] == "infinite"
        assert doc["pairwise"] == ["infinite"]
        assert doc["intermediates"]["quotient_count"] == "infinite"
        assert doc["oracle_status"] == "agreed"

    def test_six_generator_pair(self, capsys):
        doc = run_structured(capsys, PROBLEMS / "six_to_heisenberg_pair.json", "--oracle")
        assert doc["value"] == 2
        assert doc["pairwise"] == [2]
        assert doc["intermediates"]["quotient_count"] == 2
        assert doc["intermediates"]["sublattice_count"] == 6
        assert doc["intermediates"]["im_delta"] == 6
        assert doc["intermediates"]["delta_vectors"] == [[6], [-7]]
        assert doc["oracle_status"] == "agreed"

    def test_check_passes_on_all_shipped_files(self, capsys):
        for path in sorted(PROBLEMS.glob("*.json")):
            code, out, err = run_cli(capsys, "check", str(path))
            assert code == 0, (path, err)
            assert "FAIL" not in out


# -- determinism and formats --------------------------------------------------------


class TestOutputContract:
    def test_byte_determinism(self, capsys):
        for path in sorted(PROBLEMS.glob("*.json")):
            for flags in ((), ("--oracle", "--trace"), ("--format", "structured")):
                first = run_cli(capsys, "compute", str(path), *flags)
                second = run_cli(capsys, "compute", str(path), *flags)
                assert first == second

    def test_structured_keys_and_roundtrip(self, capsys):
        doc = run_structured(
            capsys, PROBLEMS / "example2_torus.json", "--oracle", "--trace"
        )
        for key in ("value", "pairwise", "intermediates", "trace", "status",
                    "oracle_status"):
            assert key in doc
        assert doc["trace"]
        reparsed = json.loads(json.dumps(doc, sort_keys=True))
        assert reparsed == doc

    def test_trace_flag_controls_trace(self, capsys):
        quiet = run_structured(capsys, PROBLEMS / "snf_worked.json")
        loud = run_structured(capsys, PROBLEMS / "snf_worked.json", "--trace")
        assert quiet["trace"] == []
        assert loud["trace"]

    def test_infinite_value_token(self, capsys):
        problem = json.dumps(
            {"kind": "abelian-pair", "maps": [[[1, 0]], [[1, 0]]]}
        )
        code, out, _ = run_cli(capsys, "compute", problem)
        assert code == 0
        assert "value: infinite" in out
        code, out, _ = run_cli(capsys, "compute", problem, "--format", "structured")
        assert json.loads(out)["value"] == "infinite"

    def test_literal_json_argument(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", '{"kind": "snf", "matrix": [[6]]}'
        )
        assert code == 0
        assert "value: 6\n" in out

    def test_big_integers_as_strings(self, capsys):
        problem = json.dumps(
            {
                "kind": "snf",
                "matrix": [["12345678901234567890", 0], [0, "2"]],
            }
        )
        code, out, _ = run_cli(capsys, "compute", problem, "--format", "structured")
        assert code == 0
        assert json.loads(out)["intermediates"]["divisors"] == [
            2,
            12345678901234567890,
        ]


def _json_text(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def _written(value) -> str:
    out = []
    cli._write_json(value, "", out)
    return "".join(out) + "\n"


def _perfbench_problems():
    """perfbench/problems.py, loaded by path under a name of its own."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_problems", ROOT / "perfbench" / "problems.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def json_checked_emit(monkeypatch):
    """Wraps cli.emit so that every structured report it prints must equal
    json.dumps of the same report; yields the list of formats seen."""
    real, formats = cli.emit, []

    def emit(report, fmt, trace):
        text = real(report, fmt, trace)
        if fmt == "structured":
            shown = dict(report, trace=report["trace"] if trace else [])
            assert text == _json_text(shown)
        formats.append(fmt)
        return text

    monkeypatch.setattr(cli, "emit", emit)
    yield formats


@pytest.fixture
def no_digit_limit():
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


WRITER_CASES = [
    {},
    [],
    [[]],
    [[], [[]], {}],
    {"a": [], "b": {}, "c": [[]]},
    'say "hi"',
    "back\\slash \\u0041",
    "tab\tnew\nline\r\x00\x1f\x7f",
    "Ψ",
    "\u2028 \u2029",
    "\U0001f600 caf\u00e9",
    -1,
    0,
    -(10**4400) - 7,
    True,
    False,
    None,
    (1, -2),
    (),
    ("x", (3, [4, -5]), ()),
    [1, True, 2, False, None],
    {"b": 1, "a": [1, "x", None], "c": {"z": True, "y": (False,)}},
    {"Ψ": "ü", "\u2028": [-3], "A": "plain", "a": {"b": {"c": [[1, 2], [3]]}}},
]


class TestStructuredWriter:
    """emit prints a structured report with its own writer; its bytes must be
    those of json.dumps(report, sort_keys=True, indent=2) and a newline."""

    @pytest.mark.parametrize("value", WRITER_CASES, ids=range(len(WRITER_CASES)))
    def test_edge_cases_print_as_json(self, value, no_digit_limit):
        assert _written(value) == _json_text(value)

    def test_edge_cases_are_sorted_indented_and_escaped(self):
        text = _written(WRITER_CASES[-1])
        assert text.index('"A"') < text.index('"a"') < text.index('"\\u03a8"')
        assert '\n  "a": {\n    "b": {\n      "c": [\n        [\n          1,' in text
        assert text.isascii()

    @pytest.mark.parametrize(
        "value",
        [1.5, {1, 2}, {"a": 0.5}, [frozenset()], {1: "x"}, b"x", {"a": [(1, 2.0)]}],
        ids=["float", "set", "float-value", "frozenset", "int-key", "bytes", "nested-float"],
    )
    def test_types_no_report_holds_raise(self, value):
        with pytest.raises(TypeError):
            cli._write_json(value, "", [])

    def test_emit_calls_no_json_dumps(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("emit called json.dumps")

        monkeypatch.setattr(cli.json, "dumps", refused)
        report = dict(cli._base_report(), value=3, trace=["one step"])
        text = cli.emit(report, "structured", trace=False)
        monkeypatch.undo()
        assert text == _json_text(dict(report, trace=[]))

    @pytest.mark.parametrize("workload", ["torus", "finite", "nilmanifold", "verify"])
    def test_reports_of_a_seeded_pass_print_as_json(self, workload, capsys, json_checked_emit):
        problems = _perfbench_problems().generate(workload, 101, ROOT)
        for p in problems:
            cli.main(p["argv"])
            capsys.readouterr()
        assert json_checked_emit == ["structured"] * len(problems)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_shipped_problems_print_as_json(self, mode, capsys, json_checked_emit):
        command, *flags = MODES[mode]
        for path in PROBLEM_FILES:
            cli.main([command, str(path), *flags, "--format", "structured"])
            capsys.readouterr()
        assert json_checked_emit == ["structured"] * len(PROBLEM_FILES)


# -- exit codes ----------------------------------------------------------------------


class TestExitCodes:
    def test_empty_file_names_kind(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        code, _, err = run_cli(capsys, "compute", str(empty))
        assert code == 1
        assert "'kind'" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "compute", str(bad))
        assert code == 1
        assert "malformed JSON" in err

    def test_non_utf8_file_is_an_input_error(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"kind": "snf", "matrix": [[1]]}\xff')
        code, out, err = run_cli(capsys, "compute", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {bad} is not UTF-8: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_json_nested_past_the_recursion_limit_is_an_input_error(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        for source in (str(deep), '{"kind": ' + "[" * 100_000):
            code, out, err = run_cli(capsys, "compute", source)
            assert (code, out) == (1, "")
            assert err.startswith("error: malformed JSON: ") and err.count("\n") == 1
            assert "Traceback" not in err

    @staticmethod
    def _product_chain(depth):
        """G_0 = Z/2 and G_i = G_(i-1) x C1 for i = 1..depth, with two
        identity maps on G_depth."""
        groups = {"G0": {"cyclic": 2}, "C1": {"cyclic": 1}}
        groups.update({f"G{i}": {"product": [f"G{i - 1}", "C1"]} for i in range(1, depth + 1)})
        top = f"G{depth}"
        maps = [{"identity": True}, {"identity": True}]
        return json.dumps(
            {"kind": "finite", "groups": groups, "domain": top, "codomain": top, "maps": maps}
        )

    def test_product_chain_past_the_recursion_limit_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "compute", self._product_chain(1000))
        assert (code, out) == (1, "")
        assert err == "error: the problem nests too deeply for Python's recursion limit\n"
        code, out, err = run_cli(capsys, "compute", self._product_chain(400))
        assert (code, err) == (0, "")
        assert "value: 2\n" in out

    @pytest.mark.parametrize(
        "problem, message",
        [
            ({"kind": "abelian-pair", "maps": [[[1, 2]], [[3]]]},
             "hom 1 has shape 1x1, expected 1x2"),
            ({"kind": "abelian-pair", "maps": [[[1, 2.0]], [[3, 4]]]},
             "maps[0] row 0[1]: expected an integer, got 2.0"),
            ({"kind": "abelian-multi", "maps": [[[1]], [[2]], [[True]]]},
             "maps[2] row 0[0]: expected an integer, got True"),
            ({"kind": "snf", "matrix": [[1, 2], [3, False]]},
             "matrix row 1[1]: expected an integer, got False"),
        ],
        ids=["shapes-differ", "float-entry", "bool-entry", "snf-bool-entry"],
    )
    def test_matrix_input_is_checked_once(self, capsys, problem, message):
        """The CLI checks every entry and row width with its JSON location;
        the engine checks that the maps share one shape."""
        code, out, err = run_cli(capsys, "compute", json.dumps(problem))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "compute", "no/such/file.json")
        assert code == 1
        assert "no such file" in err

    def test_unknown_kind(self, capsys):
        code, _, err = run_cli(capsys, "compute", '{"kind": "bogus"}')
        assert code == 1
        assert "unknown kind" in err

    def test_ragged_matrix_names_row(self, capsys):
        problem = json.dumps(
            {"kind": "abelian-multi", "maps": [[[1, 2], [3]], [[1, 2], [3, 4]]]}
        )
        code, _, err = run_cli(capsys, "compute", problem)
        assert code == 1
        assert "row 1" in err

    def test_unsupported_reduction_exits_three(self, capsys, tmp_path):
        problem = {
            "kind": "nilpotent",
            "domain": {
                "generators": ["a", "b"],
                "central": ["c"],
                "commutators": [["a", "b", {"c": 1}]],
            },
            "codomain": {
                "generators": ["a", "b"],
                "central": ["c"],
                "commutators": [["a", "b", {"c": 1}]],
            },
            "maps": [
                {"a": {"a": 1}, "b": {"b": 1}, "c": {"c": 1}},
                {"a": {"b": -1}, "b": {"a": 1}, "c": {"c": 1}},
            ],
        }
        path = tmp_path / "rotation.json"
        path.write_text(json.dumps(problem))
        code, out, _ = run_cli(capsys, "compute", str(path))
        assert code == 3
        assert "unsupported-reduction" in out

    def test_torsion_commutator_lattice_exits_three(self, capsys):
        problem = json.dumps(
            {
                "kind": "nilpotent",
                "domain": {
                    "generators": ["a", "b"],
                    "central": ["c"],
                    "commutators": [["a", "b", {"c": 2}]],
                },
                "codomain": {
                    "generators": ["a", "b"],
                    "central": ["c"],
                    "commutators": [["a", "b", {"c": 2}]],
                },
                "maps": [
                    {"a": {"a": 1}, "b": {"b": 1}, "c": {"c": 1}},
                    {"a": {"a": 1}, "b": {"b": 1}, "c": {"c": 1}},
                ],
            }
        )
        code, _, err = run_cli(capsys, "compute", problem)
        assert code == 3
        assert "direct summand" in err

    def test_oracle_mismatch_exits_two(self, capsys, monkeypatch):
        def broken(doc, oracle):
            report = cli._base_report()
            report["value"] = 1
            report["oracle_status"] = "mismatch: forced for the exit-code test"
            return report

        monkeypatch.setattr(cli, "run_snf", broken)
        code, out, _ = run_cli(capsys, "compute", '{"kind": "snf", "matrix": [[1]]}')
        assert code == 2
        assert "mismatch" in out

    def test_snf_subcommand_rejects_other_kinds(self, capsys):
        code, _, err = run_cli(
            capsys, "snf", str(PROBLEMS / "example2_torus.json")
        )
        assert code == 1
        assert "kind 'snf'" in err

    def test_usage_error_exits_one(self, capsys):
        # check runs its own cross-checks and takes no --oracle
        for argv in (["compute"], ["check", str(PROBLEMS / "example2_torus.json"), "--oracle"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 1

    def test_invalid_homomorphism_exits_one(self, capsys):
        problem = json.dumps(
            {
                "kind": "nilpotent",
                "domain": {
                    "generators": ["a", "b"],
                    "central": ["c"],
                    "commutators": [["a", "b", {"c": 1}]],
                },
                "codomain": {
                    "generators": ["a", "b"],
                    "central": ["c"],
                    "commutators": [["a", "b", {"c": 1}]],
                },
                "maps": [
                    {"a": {"a": 1}, "b": {"b": 1}, "c": {"c": 2}},
                    {"a": {"a": 1}, "b": {"b": 1}, "c": {"c": 1}},
                ],
            }
        )
        code, _, err = run_cli(capsys, "compute", problem)
        assert code == 1
        assert "commutator relation" in err

    def test_non_associative_table_exits_one(self, capsys):
        # a Latin square with identity 0 that is not a group: Z/66 with 33
        # added at rows {26, 59} x columns {3, 36}
        table = [[(i + j) % 66 for j in range(66)] for i in range(66)]
        for i in (26, 59):
            for j in (3, 36):
                table[i][j] = (table[i][j] + 33) % 66
        problem = json.dumps(
            {
                "kind": "finite",
                "groups": {"loop": {"table": table}},
                "domain": "loop",
                "codomain": "loop",
                "maps": [{"identity": True}, {"constant": True}],
            }
        )
        for command in ("compute", "check"):
            code, out, err = run_cli(capsys, command, problem)
            assert (code, out) == (1, ""), err
            assert "associativity fails" in err

    def test_non_homomorphic_images_exit_one(self, capsys):
        # the first projection of the squared order-120 group, one entry moved
        image = [i // 120 for i in range(14400)]
        image[2] = 1
        problem = json.dumps(
            {
                "kind": "finite",
                "groups": {
                    "bi": {"builtin": "binary-icosahedral"},
                    "square": {"product": ["bi", "bi"]},
                },
                "domain": "square",
                "codomain": "bi",
                "maps": [{"images": image}, {"constant": True}],
            }
        )
        code, out, err = run_cli(capsys, "compute", problem)
        assert (code, out) == (1, ""), err
        assert "multiplicativity fails" in err


# -- environment override -------------------------------------------------------------


def _malformed_pc(commutators=None, maps=None):
    heis = {"generators": ["a", "b"], "central": ["c"], "commutators": [["a", "b", {"c": 1}]]}
    domain = heis if commutators is None else dict(heis, commutators=commutators)
    maps = maps or [{"a": {"a": 1}, "b": {"b": 1}}, {"a": {"b": 1}, "b": {"a": 1}}]
    return {"kind": "nilpotent", "domain": domain, "codomain": heis, "maps": maps}


def _malformed_finite(spec, maps=None):
    return {
        "kind": "finite",
        "groups": {"G": spec},
        "domain": "G",
        "codomain": "G",
        "maps": maps or [{"identity": True}, {"constant": True}],
    }


@pytest.mark.parametrize(
    "problem, field",
    [
        (_malformed_finite({"permutations": 5}), "groups.G.permutations"),
        (_malformed_finite({"matrices": 5, "field": 3}), "groups.G.matrices"),
        (_malformed_pc(5), "domain.commutators"),
        (_malformed_pc({"a": 1}), "domain.commutators"),
        (_malformed_pc([["a", "q", {"c": 1}]]), "domain.commutators[0][1]"),
        (_malformed_pc([[0, 5, {"c": 1}]]), "domain.commutators[0][1]"),
        (_malformed_pc([["a", "b", [1]], ["b", "a", [1]]]), "domain.commutators[1]"),
        (_malformed_pc([["a", "b", {"a": 1}]]), "domain.commutators[0][2]"),
        (_malformed_pc([["a", "b", [1, 0]]]), "domain.commutators[0][2]"),
        (_malformed_pc(maps=[{"q": {"a": 1}}, {}]), "maps[0]"),
        (_malformed_pc(maps=[[[1, 0, 0]], [[1, 0, 0]]]), "maps[0]"),
        (_malformed_finite({"cyclic": 0}), "groups.G"),
        (_malformed_finite({"permutations": [[0, 0]]}), "groups.G"),
        (
            {
                "kind": "finite",
                "groups": {"C": {"cyclic": 3}, "G": {"product": ["C", "C"]}},
                "domain": "G",
                "codomain": "C",
                "maps": [{"projection": 2}, {"projection": 0}],
            },
            "maps[0]",
        ),
        (
            _malformed_finite({"cyclic": 3}, [{"images": [0, 1]}, {"constant": True}]),
            "maps[0]",
        ),
        (_malformed_pc(maps=[[[1, 0, 0], [0, 1, 0], [0, 0, 2]]] * 2), "maps[0]"),
    ],
    ids=[
        "permutations-not-array",
        "matrices-not-array",
        "commutators-not-array",
        "commutators-object",
        "unknown-generator",
        "generator-index-out-of-range",
        "repeated-pair",
        "noncentral-label-in-word",
        "word-of-wrong-length",
        "unknown-domain-label",
        "wrong-number-of-images",
        "cyclic-order-zero",
        "not-a-permutation",
        "projection-factor-out-of-range",
        "image-table-too-short",
        "images-violate-commutator",
    ],
)
def test_malformed_group_fields_name_their_path(capsys, problem, field):
    """Every malformed finite or pc field is an input error that names its
    path, never a traceback."""
    code, out, err = run_cli(capsys, "compute", json.dumps(problem))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {field}: ")
    assert "Traceback" not in err


def _pc_words(relation, first_image):
    """The Heisenberg pair of heisenberg_pair.json, with its domain relation
    word and the image of a under its first map written as given."""
    heis = {"generators": ["a", "b"], "central": ["c"], "commutators": [["a", "b", relation]]}
    maps = [{"a": first_image, "b": {"b": 1}, "c": {"c": 1}}, [[3, 0, 0], [0, -1, 0], [0, 0, -3]]]
    return {"kind": "nilpotent", "domain": heis, "codomain": dict(heis), "maps": maps}


@pytest.mark.parametrize("relation", [{"c": 1}, [1], {"c": "1"}])
@pytest.mark.parametrize("first_image", [{"a": 1}, [1, 0, 0], {"a": 1, "c": 0}])
def test_pc_words_read_as_labels_or_vectors(capsys, relation, first_image):
    """A relation word and an image read alike as {label: exp} or as an
    exponent vector over the labels in order."""
    code, out, err = run_cli(capsys, "compute", json.dumps(_pc_words(relation, first_image)))
    assert (code, out, err) == (0, "status: ok\nvalue: 16\npairwise: 16\n", "")


@pytest.mark.parametrize(
    "relation, first_image, shown",
    [
        ({"q": 1}, {"a": 1}, "domain.commutators[0][2]: 'q' is not a central generator"),
        ([1, 0], {"a": 1}, "domain.commutators[0][2]: exponent vector has length 2, expected 1"),
        ({"c": 1.5}, {"a": 1}, "domain.commutators[0][2].c: expected an integer, got 1.5"),
        ([True], {"a": 1}, "domain.commutators[0][2][0]: expected an integer, got True"),
        ({"c": 1}, {"q": 1}, "maps[0].a: 'q' is not a codomain generator"),
        ({"c": 1}, [1, 0], "maps[0].a: exponent vector has length 2, expected 3"),
        ({"c": 1}, {"a": "x"}, "maps[0].a.a: expected an integer, got 'x'"),
        ({"c": 1}, [1, None, 0], "maps[0].a[1]: expected an integer, got None"),
    ],
    ids=[
        "relation-label",
        "relation-length",
        "relation-entry",
        "relation-vector-entry",
        "image-label",
        "image-length",
        "image-entry",
        "image-vector-entry",
    ],
)
def test_malformed_pc_words_name_their_path(capsys, relation, first_image, shown):
    code, out, err = run_cli(capsys, "compute", json.dumps(_pc_words(relation, first_image)))
    assert (code, out, err) == (1, "", f"error: {shown}\n")


KLEIN_TABLE = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
ANSWERS_ONE = "status: ok\nvalue: 1\npairwise: 1\npairwise product 1 divides 1\n"


def _projection_problem(groups, domain, codomain):
    return {
        "kind": "finite",
        "groups": groups,
        "domain": domain,
        "codomain": codomain,
        "maps": [{"projection": 0}, {"projection": 1}],
    }


@pytest.mark.parametrize(
    "problem, code, printed",
    [
        (
            _projection_problem(
                {"C": {"cyclic": 4}, "D": {"cyclic": 4}, "P": {"product": ["C", "C"]}}, "P", "D"
            ),
            0,
            ANSWERS_ONE,
        ),
        (
            _projection_problem(
                {"C": {"cyclic": 4}, "V": {"table": KLEIN_TABLE}, "P": {"product": ["C", "C"]}},
                "P",
                "V",
            ),
            1,
            "error: maps[0]: that projection does not land in the codomain\n",
        ),
        (
            _projection_problem(
                {
                    "G": {"cyclic": 2},
                    "Q": {"product": ["G", "G"]},
                    "Q2": {"product": ["G", "G"]},
                    "P": {"product": ["Q", "Q"]},
                },
                "P",
                "Q2",
            ),
            0,
            ANSWERS_ONE,
        ),
        (
            # KLEIN_TABLE is the index arithmetic of G x G = Q
            _projection_problem(
                {
                    "G": {"cyclic": 2},
                    "Q": {"product": ["G", "G"]},
                    "T": {"table": KLEIN_TABLE},
                    "P": {"product": ["Q", "Q"]},
                },
                "P",
                "T",
            ),
            1,
            "error: maps[0]: that projection does not land in the codomain\n",
        ),
    ],
    ids=["equal-tables", "unequal-tables", "pair-against-pair", "table-against-pair"],
)
def test_projection_codomain_is_compared_by_backing(capsys, problem, code, printed):
    """A projection lands in a codomain declared under another name when
    both are tables and the tables are equal, or both are products of
    factors that are the same group.  A table and a product are never the
    same group, even when the table is the product's arithmetic: the
    comparison is conservative by design."""
    result = run_cli(capsys, "compute", json.dumps(problem))
    assert result == ((code, printed, "") if code == 0 else (code, "", printed))


class TestClosureCapEnv:
    def test_tight_cap_blocks_builtin(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.CLOSURE_CAP_ENV, "50")
        code, _, err = run_cli(
            capsys, "compute", str(PROBLEMS / "example1_poincare.json")
        )
        assert code == 1
        assert "cap of 50" in err
        assert cli.CLOSURE_CAP_ENV in err

    def test_generous_cap_allows_builtin(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.CLOSURE_CAP_ENV, "200")
        code, out, _ = run_cli(
            capsys, "compute", str(PROBLEMS / "example1_poincare.json")
        )
        assert code == 0
        assert "value: 120\n" in out

    def test_cap_bounds_cyclic_orders(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.CLOSURE_CAP_ENV, "10")
        too_big = _malformed_finite({"cyclic": 16})
        code, _, err = run_cli(capsys, "compute", json.dumps(too_big))
        assert code == 1
        assert "cyclic group of order 16 exceeds the cap of 10" in err
        assert cli.CLOSURE_CAP_ENV in err
        both_identity = _malformed_finite({"cyclic": 10}, [{"identity": True}] * 2)
        code, out, _ = run_cli(capsys, "compute", json.dumps(both_identity))
        assert code == 0
        assert "value: 10\n" in out

    def test_invalid_cap_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.CLOSURE_CAP_ENV, "banana")
        code, _, err = run_cli(
            capsys, "compute", str(PROBLEMS / "example1_poincare.json")
        )
        assert code == 1
        assert cli.CLOSURE_CAP_ENV in err


# -- alternate input spellings ---------------------------------------------------------


class TestInputForms:
    def test_pc_vector_and_index_forms_match_dict_form(self, capsys):
        vector_form = json.dumps(
            {
                "kind": "nilpotent",
                "domain": {
                    "generators": ["a", "b"],
                    "central": ["c"],
                    "commutators": [[0, 1, [1]]],
                },
                "codomain": {
                    "generators": ["a", "b"],
                    "central": ["c"],
                    "commutators": [[0, 1, [1]]],
                },
                "maps": [
                    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    [[3, 0, 0], [0, -1, 0], [0, 0, -3]],
                ],
            }
        )
        code, out, _ = run_cli(capsys, "compute", vector_form)
        assert code == 0
        assert "value: 16\n" in out

    def test_shared_presentation_is_built_once(self, monkeypatch):
        built = []
        real = cli._build_pc_group

        def build(spec, where):
            built.append(where)
            return real(spec, where)

        monkeypatch.setattr(cli, "_build_pc_group", build)
        heis = {"generators": ["a", "b"], "central": ["c"], "commutators": [["a", "b", {"c": 1}]]}
        maps = [
            {"a": {"a": 1}, "b": {"b": 1}, "c": {"c": 1}},
            {"a": {"a": 3}, "b": {"b": -1}, "c": {"c": -3}},
        ]
        copy = json.loads(json.dumps(heis))
        homs = cli._build_pc_maps({"domain": heis, "codomain": copy, "maps": maps})
        assert built == ["domain"]
        assert all(h.domain is h.codomain for h in homs)
        wider = dict(heis, central=["c", "e"])
        cli._build_pc_maps({"domain": wider, "codomain": heis, "maps": maps})
        assert built == ["domain", "domain", "codomain"]

    @pytest.mark.parametrize(
        "codomain, code, shown",
        [
            # equal under ==, but the labels read "1" and "True"
            (
                {"generators": [True, "b"], "central": ["c"], "commutators": [[0, 1, [1]]]},
                0,
                "value: 16\n",
            ),
            (
                {"generators": [1, "b"], "central": ["c"], "commutators": [[0, 1, [1.0]]]},
                1,
                "codomain.commutators[0][2][0]: expected an integer, got 1.0",
            ),
            (
                {"generators": [1, "b"], "central": ["c"], "commutators": [[False, 1, [1]]]},
                1,
                "codomain.commutators[0][0]: expected an integer, got False",
            ),
        ],
        ids=["bool-label", "float-exponent", "bool-index"],
    )
    def test_presentation_equal_only_under_loose_equality_is_built_again(
        self, capsys, codomain, code, shown
    ):
        domain = {"generators": [1, "b"], "central": ["c"], "commutators": [[0, 1, [1]]]}
        assert domain == codomain
        label = codomain["generators"][0]
        first = {"1": {str(label): 1}, "b": {"b": 1}, "c": {"c": 1}}
        second = {"1": {str(label): 3}, "b": {"b": -1}, "c": {"c": -3}}
        problem = {
            "kind": "nilpotent", "domain": domain, "codomain": codomain, "maps": [first, second]
        }
        result = run_cli(capsys, "compute", json.dumps(problem))
        assert result[0] == code
        assert shown in result[1] + result[2]

    def test_permutation_group_spec(self, capsys):
        problem = json.dumps(
            {
                "kind": "finite",
                "groups": {"sym3": {"permutations": [[1, 0, 2], [1, 2, 0]]}},
                "domain": "sym3",
                "codomain": "sym3",
                "maps": [{"identity": True}, {"identity": True}],
            }
        )
        code, out, _ = run_cli(capsys, "compute", problem)
        assert code == 0
        assert "value: 3\n" in out  # conjugacy classes of the order-6 group

    def test_matrix_group_spec_matches_builtin(self, capsys):
        problem = json.dumps(
            {
                "kind": "finite",
                "groups": {
                    "星": {
                        "matrices": [[[1, 1], [0, 1]], [[0, -1], [1, 0]]],
                        "field": 5,
                    }
                },
                "domain": "星",
                "codomain": "星",
                "maps": [{"identity": True}, {"identity": True}],
            }
        )
        code, out, _ = run_cli(capsys, "compute", problem)
        assert code == 0
        assert "value: 9\n" in out

    def test_table_and_cyclic_specs(self, capsys):
        problem = json.dumps(
            {
                "kind": "finite",
                "groups": {"two": {"table": [[0, 1], [1, 0]]}},
                "domain": "two",
                "codomain": "two",
                "maps": [{"identity": True}, {"identity": True}],
            }
        )
        code, out, _ = run_cli(capsys, "compute", problem)
        assert code == 0
        assert "value: 2\n" in out

    def test_images_map_matches_library(self, capsys):
        group = cyclic_group(4)
        inversion = FiniteHom(group, group, [0, 3, 2, 1])
        expected = twisted_reidemeister([inversion, inversion]).value
        problem = json.dumps(
            {
                "kind": "finite",
                "groups": {"c4": {"cyclic": 4}},
                "domain": "c4",
                "codomain": "c4",
                "maps": [{"images": [0, 3, 2, 1]}, {"images": [0, 3, 2, 1]}],
            }
        )
        code, out, _ = run_cli(capsys, "compute", problem)
        assert code == 0
        assert f"value: {expected}\n" in out

    def test_small_product_projection(self, capsys):
        problem = json.dumps(
            {
                "kind": "finite",
                "groups": {
                    "c2": {"cyclic": 2},
                    "c3": {"cyclic": 3},
                    "prod": {"product": ["c2", "c3"]},
                },
                "domain": "prod",
                "codomain": "c3",
                "maps": [{"projection": 1}, {"constant": True}],
            }
        )
        code, out, _ = run_cli(capsys, "compute", problem)
        assert code == 0
        assert "value: 1\n" in out  # the projection is onto, one translation orbit

    def test_abelian_pair_requires_exactly_two(self, capsys):
        problem = json.dumps(
            {"kind": "abelian-pair", "maps": [[[1]], [[2]], [[3]]]}
        )
        code, _, err = run_cli(capsys, "compute", problem)
        assert code == 1
        assert "expected 2 matrices" in err

    def test_circular_product_definition(self, capsys):
        problem = json.dumps(
            {
                "kind": "finite",
                "groups": {
                    "a": {"product": ["b", "b"]},
                    "b": {"product": ["a", "a"]},
                },
                "domain": "a",
                "codomain": "a",
                "maps": [{"identity": True}, {"identity": True}],
            }
        )
        code, _, err = run_cli(capsys, "compute", problem)
        assert code == 1
        assert "circular" in err


# -- one Smith form per matrix ----------------------------------------------------------


class TestSmithFormReuse:
    """Each matrix is reduced at most once per order route per compute, snf or
    check call: once by the engine's Smith form, once by Hermite pivots
    (cokernel_order), and once by the oracle's bare Smith loop
    (_smith_divisors, run from cli); and its columns are triangulated
    (_hermite_rows) at most once in all, whichever route asks.

    cli, abelian and nilpotent import both order routes by name, so each
    counting wrapper, the triangulation's too, replaces its function in
    every namespace that binds it.  A triangulation is counted wherever it
    runs, keyed by the matrix whose columns it takes, when that matrix (or,
    for a tall Smith form, its transpose) was handed to either route: the
    rows a wide index route kept and the dual slices of the leave-one-out
    values are not input columns.  The oracles look the Smith loop up in exact_linalg, where the engine's
    Smith forms call it too, so only the runs that cli starts are counted,
    keyed by the matrix they reduce."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        namespaces = [coincidence_kit] + [
            importlib.import_module(f"coincidence_kit.{name}")
            for name in ("cli", "abelian", "exact_linalg", "finite", "nilpotent")
        ]
        seen = {
            "smith": Counter(),
            "hermite": Counter(),
            "basis": Counter(),
            "elimination": Counter(),
        }
        routes = {
            "smith": exact_linalg.smith_normal_form,
            "hermite": exact_linalg._cokernel_order,
        }
        for route, original in routes.items():

            def counting(m, original=original, route=route, **multiple):
                seen[route][m] += 1
                return original(m, **multiple)

            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        monkeypatch.setattr(ns, attr, counting)

        def eliminating(rows, t=None, original=exact_linalg._smith_divisors):
            if sys._getframe(1).f_globals["__name__"] == cli.__name__:
                seen["elimination"][IntMatrix(rows)] += 1
            return original(rows, t)

        monkeypatch.setattr(exact_linalg, "_smith_divisors", eliminating)

        def triangulating(vectors, width, d, original=exact_linalg._hermite_rows):
            vectors = list(vectors)
            m = IntMatrix.from_columns(vectors, rows=width)
            if m in seen["hermite"] or m in seen["smith"] or m.transpose() in seen["smith"]:
                seen["basis"][m] += 1
            return original(vectors, width, d)

        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is exact_linalg._hermite_rows:
                    monkeypatch.setattr(ns, attr, triangulating)
        return seen

    def _assert_each_once(self, capsys, reductions, *argv):
        """Run the CLI; return the (Smith, Hermite, basis, elimination)
        reduction counts."""
        for seen in reductions.values():
            seen.clear()
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        repeated = [
            (route, m.rows, m.cols, n)
            for route, seen in reductions.items()
            for m, n in seen.items()
            if n > 1
        ]
        assert not repeated, (argv, repeated)
        return tuple(sum(seen.values()) for seen in reductions.values())

    def test_shipped_problems(self, capsys, reductions):
        for path in sorted(PROBLEMS.glob("*.json")):
            self._assert_each_once(capsys, reductions, "compute", str(path))
        self._assert_each_once(capsys, reductions, "snf", str(PROBLEMS / "snf_worked.json"))

    def test_four_map_torus_system(self, capsys, reductions):
        rng = random.Random(4)
        maps = [
            [[rng.randint(-4, 4) for _ in range(10)] for _ in range(3)]
            for _ in range(4)
        ]
        problem = json.dumps({"kind": "abelian-multi", "maps": maps})
        # Smith: the 9 x 10 stacked matrix, whose divisors are printed;
        # Hermite: the three pairwise matrices; basis: the four of them, by
        # their index routes, and no triangulation more for the three
        # leave-one-out values, which read the stack's kept basis
        stacked = stacked_difference(AbelianSystem(maps))
        total = self._assert_each_once(capsys, reductions, "compute", problem)
        assert total == (1, 3, 4, 0)
        assert reductions["basis"][stacked] == 1
        # a square 9 x 9 stack has no index route basis: the leave-one-out
        # values triangulate its columns once (its gcd(g, D) is 1, so the
        # divisors need no triangulation modulo it)
        system = AbelianSystem([[row[1:] for row in m] for m in maps])
        stacked = stacked_difference(system)
        problem = json.dumps({"kind": "abelian-multi", "maps": [h.to_lists() for h in system.homs]})
        total = self._assert_each_once(capsys, reductions, "compute", problem)
        assert total == (1, 3, 4, 0)
        assert reductions["basis"][stacked] == 1
        # pairwise values above 1 add no reduction: |ker Psi| is the value
        # over their product, and no lattice index is taken
        total = self._assert_each_once(
            capsys, reductions, "compute", str(PROBLEMS / "example2_torus.json")
        )
        assert total == (1, 3, 4, 0)

    def test_check_on_shipped_abelian_problems(self, capsys, reductions):
        for path in sorted(PROBLEMS.glob("*.json")):
            if json.loads(path.read_text())["kind"].startswith("abelian"):
                self._assert_each_once(capsys, reductions, "check", str(path))

    def test_check_on_four_map_torus_system(self, capsys, reductions):
        rng = random.Random(4)
        maps = [
            [[rng.randint(-4, 4) for _ in range(10)] for _ in range(3)]
            for _ in range(4)
        ]
        problem = json.dumps({"kind": "abelian-multi", "maps": maps})
        # compute's reductions, plus the 23 orderings other than the
        # identity, each a wide stack triangulated once by its index route
        stacked = stacked_difference(AbelianSystem(maps))
        assert self._assert_each_once(capsys, reductions, "check", problem) == (1, 26, 27, 0)
        assert reductions["basis"][stacked] == 1

    def test_abelian_oracle_enumerates_once(self, capsys, reductions, monkeypatch):
        original = exact_linalg.enumerate_cokernel
        enumerated = []

        def counting(m, **kwargs):
            enumerated.append(m)
            return original(m, **kwargs)

        monkeypatch.setattr(exact_linalg, "enumerate_cokernel", counting)
        total = self._assert_each_once(
            capsys, reductions, "compute", str(PROBLEMS / "example2_torus.json"), "--oracle"
        )
        # each number once more, by the bare Smith loop with none of the
        # engine's index route: the stacked matrix, the three pairwise
        # blocks and the three leave-one-out stacks; no Hermite pivots or
        # triangulation past the engine's
        assert total == (1, 3, 4, 1 + 3 + 3)
        assert len(enumerated) == 0  # the oracle lists no class

    def test_abelian_oracle_on_a_pair_eliminates_the_block_once(self, capsys, reductions):
        # with two maps the one block is the stack: the engine took its Smith
        # form, whose index route triangulates it once, for the value and
        # the pairwise value, and |ker Psi| is the value over it; the
        # oracle's Smith loop reduces it once, for its divisors, the value
        # and the pairwise value
        maps = [[[1, 2, 0], [0, 1, 3]], [[3, 2, 5], [1, -1, 3]]]
        problem = json.dumps({"kind": "abelian-pair", "maps": maps})
        total = self._assert_each_once(capsys, reductions, "compute", problem, "--oracle")
        assert total == (1, 0, 1, 1)


class TestCheckSolvesEachOrderingOnce:
    """check solves each distinct reordered map list once, and takes the
    identity ordering from the solve it already made.  example1_poincare has
    maps [p, p, c]: its 6 orderings hold 3 distinct lists."""

    @pytest.mark.parametrize(
        "name, solver, calls",
        [
            ("example1_poincare", "twisted_reidemeister", 3 + 1),  # + union-find
            ("example3_nilmanifold", "reid_nilpotent_multi", 6),
            ("heisenberg_pair", "reid_nilpotent_multi", 2),
        ],
    )
    def test_solver_calls(self, capsys, monkeypatch, name, solver, calls):
        original = getattr(cli, solver)
        seen = []

        def counting(homs, **kwargs):
            seen.append(homs)
            return original(homs, **kwargs)

        monkeypatch.setattr(cli, solver, counting)
        code, _, err = run_cli(capsys, "check", str(PROBLEMS / f"{name}.json"))
        assert code == 0, err
        assert len(seen) == calls

    def test_torus_system_with_a_repeated_map(self, capsys, monkeypatch):
        original = cli.cokernel_order
        seen = []

        def counting(m):
            seen.append(m)
            return original(m)

        monkeypatch.setattr(cli, "cokernel_order", counting)
        a = [[2, 1], [0, 3]]
        b = [[1, 0], [4, -1]]
        problem = json.dumps({"kind": "abelian-multi", "maps": [a, a, b]})
        code, out, err = run_cli(capsys, "check", problem)
        assert code == 0, err
        assert "PASS ordering-invariance: all 6 orderings agree" in out
        # [a, a, b], [a, b, a] and [b, a, a]; the first is compute's own
        assert len(seen) == 2


def test_ordering_row_details():
    row = cli._ordering_row
    assert row("ab", 3, lambda sigma: 3) == (True, "all 2 orderings agree")
    assert row("ab", 3, lambda sigma: 4) == (False, "orderings disagree: ['3', '4']")
    outside = (True, "skipped: some orderings fall outside the reduction")
    assert row("ab", 3, lambda sigma: None) == outside
    assert row("ab", None, lambda sigma: 3) == outside
    assert row("abcde", 3, pytest.fail) == (True, "skipped: more than 4 maps")
    solved = []
    assert row("aab", 3, lambda sigma: solved.append(sigma) or 3) == (
        True,
        "all 6 orderings agree",
    )
    assert len(solved) == 2  # aba and baa; aab is the identity's own


class TestPairwiseValuesReuseSweeps:
    """The pairwise values come from the partition the count returns: the
    pairwise value of two maps is the value itself, and the others project
    the family's image subgroup, so compute counts once."""

    @pytest.mark.parametrize(
        "maps, value, pairwise",
        [
            ([{"identity": True}, {"constant": True}], 1, [1]),
            ([{"identity": True}, {"constant": True}, {"constant": True}], 24, [1, 1]),
            ([{"identity": True}, {"identity": True}, {"constant": True}], 24, [5, 1]),
        ],
    )
    def test_orbit_sweeps(self, capsys, monkeypatch, maps, value, pairwise):
        original = finite.twisted_reidemeister
        seen = []

        def counting(homs, **kwargs):
            seen.append(len(homs))
            return original(homs, **kwargs)

        monkeypatch.setattr(cli, "twisted_reidemeister", counting)
        monkeypatch.setattr(finite, "twisted_reidemeister", counting)
        problem = json.dumps(
            {
                "kind": "finite",
                "groups": {"s4": {"permutations": [[1, 0, 2, 3], [1, 2, 3, 0]]}},
                "domain": "s4",
                "codomain": "s4",
                "maps": maps,
            }
        )
        code, out, err = run_cli(capsys, "compute", problem, "--format", "structured")
        assert code == 0, err
        assert seen == [len(maps)]
        report = json.loads(out)
        assert report["value"] == value
        assert report["pairwise"] == pairwise

    @pytest.mark.parametrize("flags, scans", [((), 1), (("--oracle",), 2)])
    def test_one_domain_scan_per_count(self, capsys, monkeypatch, flags, scans):
        # S4 [ID, ID, CONST] prints two pairwise values, and they scan no
        # domain: only the count and the union-find oracle do
        original = finite._image_tuples
        seen = []

        def counting(homs):
            seen.append(len(homs))
            return original(homs)

        monkeypatch.setattr(finite, "_image_tuples", counting)
        problem = _finite_problem(S4_GENS, [ID, ID, CONST])
        code, out, err = run_cli(capsys, "compute", problem, *flags)
        assert code == 0, err
        assert "pairwise: 5, 1\n" in out
        assert seen == [3] * scans


S4_GENS = [[1, 0, 2, 3], [1, 2, 3, 0]]
S5_GENS = [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]
ID, CONST = {"identity": True}, {"constant": True}


def _finite_problem(gens, maps):
    return json.dumps(
        {
            "kind": "finite",
            "groups": {"g": {"permutations": gens}},
            "domain": "g",
            "codomain": "g",
            "maps": maps,
        }
    )


def _drop_class(representatives, sizes):
    del representatives[3], sizes[3]


def _size_off_by_one(representatives, sizes):
    sizes[0] += 1


def _decode(t, n, arity):
    """The coordinates of tuple index t, the first one most significant."""
    digits = []
    for _ in range(arity):
        t, r = divmod(t, n)
        digits.append(r)
    digits.reverse()
    return digits


def _apply(action, digits, codomain):
    """The index of the tuple that one action (left, right_inv) moves digits to."""
    left, right_inv = action
    n, mul = codomain.order, codomain.mul
    t = 0
    for d, r in zip(digits, right_inv):
        t = t * n + mul(mul(left, d), r)
    return t


class _CountingList(list):
    """A list that appends to reads on every read of one of its entries."""

    def __init__(self, items, reads):
        super().__init__(items)
        self.reads = reads

    def __getitem__(self, i):
        self.reads.append(None)
        return super().__getitem__(i)


class TestStabilizerDescent:
    """compute counts the twisted classes by descending through stabilizers
    and never touches every tuple; --oracle and check hold its
    representatives and class sizes to union-find's, which catches a descent
    that miscounts or picks a wrong representative."""

    @staticmethod
    def _count_reads(monkeypatch, rows=None, inverses=None):
        """Close the problem's groups with every entry read of their table
        rows appended to rows and of their inverse array to inverses.

        The descent and the inversions read those arrays directly; mul and
        inv read them once per call, so those calls are counted as well.
        """
        original = cli.close_group

        def closing(*args, **kwargs):
            group = original(*args, **kwargs)
            if rows is not None:
                group._table = [_CountingList(row, rows) for row in group._table]
            if inverses is not None:
                group._inv = _CountingList(group._inv, inverses)
            return group

        monkeypatch.setattr(cli, "close_group", closing)

    def test_work_and_one_union_find_run(self, capsys, monkeypatch):
        reads = []
        self._count_reads(monkeypatch, rows=reads)
        original_solve = cli.twisted_reidemeister
        algorithms = []

        def recording_solve(homs, **kwargs):
            algorithms.append(kwargs.get("algorithm", "orbit"))
            return original_solve(homs, **kwargs)

        monkeypatch.setattr(cli, "twisted_reidemeister", recording_solve)
        problem = _finite_problem(S5_GENS, [ID, ID, CONST])
        code, out, err = run_cli(capsys, "compute", problem)
        assert code == 0, err
        assert "value: 120\n" in out
        # 3 600 table reads here, two per action step, as R(phi_1, phi_2)
        # is read off the representatives; sweeping all 14 400 tuples made
        # 59 520 element products, one table read each
        assert 0 < len(reads) <= 4000
        assert algorithms == ["orbit"]

        algorithms.clear()
        reads.clear()
        code, out, err = run_cli(capsys, "compute", problem, "--oracle")
        assert code == 0, err
        assert "oracle: agreed\n" in out
        assert algorithms == ["orbit", "union-find"]
        # union-find tabulates each generator's action per coordinate: 4 794
        # reads here with the descent's; moving every tuple through every
        # generator made 121 194
        assert len(reads) <= 8000

    def test_union_find_inverts_only_its_generators(self, capsys, monkeypatch):
        inversions = []
        self._count_reads(monkeypatch, inverses=inversions)
        problem = _finite_problem(S5_GENS, [ID, ID, CONST])
        counts = []
        for flags in ((), ("--oracle",)):
            inversions.clear()
            code, out, err = run_cli(capsys, "compute", problem, *flags)
            assert code == 0, err
            counts.append(len(inversions))
        # |Gamma| * (k - 1) = 240 for the count and 120 for the constant
        # map's pairwise value, the one descent pairwise() runs; union-find
        # then inverts its generators' images alone, where inverting all of
        # Gamma first made 724 in all
        assert counts[0] == 360
        assert counts[1] - counts[0] <= 8

    @pytest.fixture
    def mutated_descent(self, monkeypatch):
        original = finite._descend

        def install(mutate):
            def mutated(actions, codomain, arity):
                representatives, sizes = original(actions, codomain, arity)
                if arity > 1:  # the family's count, not its pairwise values
                    mutate(representatives, sizes)
                return representatives, sizes

            monkeypatch.setattr(finite, "_descend", mutated)

        return install

    def _assert_caught(self, capsys, problem, message):
        for argv in (("compute", problem), ("compute", problem, "--oracle"), ("check", problem)):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("consistency failure: ")
            assert message in err

    def _assert_disagreement(self, capsys, problem):
        """Plain compute prints what it printed before; --oracle and check
        find that union-find disagrees."""
        code, out, err = run_cli(capsys, "compute", problem, "--oracle")
        assert code == 2, err
        assert "oracle: mismatch: the two orbit algorithms disagree\n" in out
        code, out, err = run_cli(capsys, "check", problem)
        assert code == 2, err
        assert "FAIL dual-algorithms-agree: the two algorithms produce different partitions\n" in out

    def test_dropped_representative_is_caught(self, capsys, mutated_descent):
        # every class of S4 [ID, ID, CONST] has 24 tuples, so the sizes still
        # cover the tuple space and divide the domain order
        def drop(representatives, sizes):
            del representatives[3]

        mutated_descent(drop)
        self._assert_caught(
            capsys, _finite_problem(S4_GENS, [ID, ID, CONST]), "got 23 for 24 classes"
        )

    def test_shifted_representative_is_caught(self, capsys, monkeypatch):
        # S4 [ID, ID, CONST]: the last class's representative moves to the
        # largest member of its class, so there is still one per class in
        # ascending order and the sizes are untouched; R(phi_1, phi_2) is read
        # off the representatives' leading coordinates, so plain compute
        # shows the moved one as a sixth class there (5 unmutated)
        problem = _finite_problem(S4_GENS, [ID, ID, CONST])
        original = finite._descend

        def shifted(actions, codomain, arity):
            representatives, sizes = original(actions, codomain, arity)
            if arity > 1:  # the family's count, not its pairwise values
                digits = _decode(representatives[-1], codomain.order, arity)
                representatives[-1] = max(_apply(a, digits, codomain) for a in actions)
            return representatives, sizes

        monkeypatch.setattr(finite, "_descend", shifted)
        code, after, err = run_cli(capsys, "compute", problem)
        assert code == 0, err
        assert "pairwise: 6, 1\n" in after
        self._assert_disagreement(capsys, problem)

    @pytest.mark.parametrize("mutate", [_drop_class, _size_off_by_one])
    def test_broken_cover_is_caught(self, capsys, mutated_descent, mutate):
        mutated_descent(mutate)
        self._assert_caught(
            capsys, _finite_problem(S4_GENS, [ID, ID, CONST]), "do not cover the tuple space"
        )

    def test_exchanged_sizes_are_caught(self, capsys, mutated_descent):
        # S4 [ID, ID, ID]: two classes of unequal size trade sizes, so the
        # sum, the divisibility and the printed histogram all stay as they were
        def exchange(representatives, sizes):
            j = next(j for j, s in enumerate(sizes) if s != sizes[0])
            sizes[0], sizes[j] = sizes[j], sizes[0]

        problem = _finite_problem(S4_GENS, [ID, ID, ID])
        _, before, _ = run_cli(capsys, "compute", problem)
        mutated_descent(exchange)
        code, after, err = run_cli(capsys, "compute", problem)
        assert code == 0, err
        assert after == before
        self._assert_disagreement(capsys, problem)

    def test_non_subgroup_breaks_orbit_stabilizer(self, capsys, monkeypatch):
        original = finite._image_tuples
        monkeypatch.setattr(finite, "_image_tuples", lambda homs: original(homs)[:-1])
        problem = _finite_problem(S4_GENS, [ID, ID, CONST])
        for argv in (("compute", problem), ("compute", problem, "--oracle"), ("check", problem)):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert "breaks orbit-stabilizer" in err


def _trivial_group_problem(group):
    return json.dumps(
        {"kind": "finite", "groups": {"g": group}, "domain": "g", "codomain": "g",
         "maps": [ID, CONST]}
    )


@pytest.mark.parametrize(
    "group",
    [
        {"permutations": [[0]]},
        {"matrices": [[[1]]], "field": 10000000000000061},
        {"matrices": [[[1]]], "field": 10**18 + 3},
    ],
    ids=["one-point", "gf-1e16", "gf-1e18"],
)
def test_trivial_closures_count_one(capsys, group):
    # trial division up to sqrt(p) took 7 s on the first field and would
    # take about 70 s on the second
    code, out, err = run_cli(capsys, "compute", _trivial_group_problem(group))
    assert code == 0, err
    assert "value: 1\n" in out


def test_a_field_at_the_prime_bound_exits_1(capsys):
    bound = 3317044064679887385961981
    group = {"matrices": [[[1]]], "field": bound}
    code, out, err = run_cli(capsys, "compute", _trivial_group_problem(group))
    assert (code, out) == (1, "")
    assert f"primes below {bound}" in err


# -- Smith transforms only when read ----------------------------------------------------


class TestLazySmithTransforms:
    """Matrices of full row rank are reduced without transforms; only the
    shapes that need them take the elimination that tracks s and t."""

    @pytest.fixture
    def with_transforms(self, monkeypatch):
        original = exact_linalg._smith_with_transforms
        shapes = []

        def counting(m):
            shapes.append((m.rows, m.cols))
            return original(m)

        monkeypatch.setattr(exact_linalg, "_smith_with_transforms", counting)
        return shapes

    def test_square_snf_problem(self, capsys, with_transforms):
        rng = random.Random(32)
        matrix = [[rng.randint(-9, 9) for _ in range(32)] for _ in range(32)]
        problem = json.dumps({"kind": "snf", "matrix": matrix})
        code, out, err = run_cli(capsys, "compute", problem)
        assert code == 0, err
        assert "value: " in out and "value: infinite" not in out
        assert with_transforms == []

    def test_torus_system_stacked_matrix(self, capsys, with_transforms):
        rng = random.Random(3)

        def block(scale):
            return [[scale * rng.randint(-4, 4) for _ in range(8)] for _ in range(4)]

        # differences divisible by 2 and 3 make both pairwise values exceed
        # 1, and |ker Psi| is the value over their product
        base = block(1)
        maps = [base] + [
            [[b + v for b, v in zip(rb, rv)] for rb, rv in zip(base, block(scale))]
            for scale in (2, 3)
        ]
        problem = json.dumps({"kind": "abelian-multi", "maps": maps})
        code, out, err = run_cli(capsys, "compute", problem, "--trace")
        assert code == 0, err
        assert "pairwise: 16, 81\n" in out
        assert "(value over the pairwise product)" in out
        # the wide pairwise matrices take Hermite pivots, and the 8x8
        # stacked one is nonsingular
        assert with_transforms == []


class TestTransformFreeSmith:
    """Every Smith form of full row rank that a run prints is read off the
    index's Bareiss pass by _certified_divisors: at once when gcd(g, D) is
    1, else by one run of the Smith loop without transforms on the R x R
    Hermite basis of the lattice plus gcd(g, D) * Z^R, upper triangular
    with entries in [0, gcd(g, D)].  The loop never runs on the input
    itself, nor with t."""

    @pytest.fixture
    def kernels(self, monkeypatch):
        """_certified_divisors calls, and the Smith loop's runs keyed by
        their shape and by "triangular" when the rows are upper triangular
        with no negative entry, as _hermite_rows gives them."""
        calls = count_kernel_calls(monkeypatch, "_certified_divisors")
        original = exact_linalg._smith_divisors

        def recording(rows, t=None):
            triangular = all(not any(row[:i]) and min(row) >= 0 for i, row in enumerate(rows))
            shape = f"{len(rows)}x{len(rows[0])}"
            calls[f"{shape} {'triangular' if triangular else 'input'}" + (" with t" if t is not None else "")] += 1
            return original(rows, t)

        monkeypatch.setattr(exact_linalg, "_smith_divisors", recording)
        return calls

    @pytest.mark.parametrize("command", ["snf", "compute"])
    def test_nonsingular_square_snf_problem(self, capsys, kernels, command):
        # gcd(g, D) > 1 here, and times 6 the primes 2 and 3 divide every
        # divisor: either way one loop reduces the 16 x 16 Hermite basis
        matrix = _seeded_matrix(1616, 16)
        scaled = [[6 * x for x in row] for row in matrix]
        for data, value in ((matrix, 3215286139594), (scaled, 3215286139594 * 6**16)):
            kernels.clear()
            code, out, err = run_cli(capsys, command, _snf_problem(data))
            assert code == 0, err
            assert f"value: {value}\n" in out
            assert kernels == {"_certified_divisors": 1, "16x16 triangular": 1}

    @pytest.mark.parametrize("extra", [0, 1], ids=["square", "wide"])
    def test_stacked_torus_system(self, capsys, kernels, extra):
        # three maps Z^(8 + extra) -> Z^4 stack to an 8 x (8 + extra)
        # difference; pairwise and leave-one-out orders take Hermite pivots.
        # Unscaled, gcd(g, D) is 1 for the square stack and not for the wide
        # one; times 6 it never is.  The loop runs on 8 x 8 rows alone.
        for scale, reduced in ((1, extra), (6, 1)):
            rng = random.Random(19)
            maps = [
                [[scale * rng.randint(-4, 4) for _ in range(8 + extra)] for _ in range(4)]
                for _ in range(3)
            ]
            problem = json.dumps({"kind": "abelian-multi", "maps": maps})
            kernels.clear()
            code, out, err = run_cli(capsys, "compute", problem, "--trace")
            assert code == 0, err
            assert f"stacked difference has shape 8x{8 + extra}\n" in out
            assert "value: infinite" not in out
            assert kernels == Counter({"_certified_divisors": 1, "8x8 triangular": reduced})

    def test_wrong_wide_recount_exits_2(self, capsys, monkeypatch):
        # the oracle's pairwise blocks and leave-one-out stacks of example 2
        # are 1x3 and 2x3; a kernel that doubles their last divisor gives
        # recounts that the engine's values refuse
        original = exact_linalg._smith_divisors

        def doubling(rows, t=None):
            wide = t is None and len(rows) < len(rows[0])
            divisors = original(rows, t)
            if wide:
                divisors = divisors[:-1] + (2 * divisors[-1],)
            return divisors

        monkeypatch.setattr(exact_linalg, "_smith_divisors", doubling)
        path = str(PROBLEMS / "example2_torus.json")
        code, _, err = run_cli(capsys, "compute", path)
        assert code == 0, err
        code, out, err = run_cli(capsys, "compute", path, "--oracle")
        assert code == 2
        assert "oracle: mismatch: " in out
        assert "pairwise values 2, 4, 2 and leave-one-out values 4, 2, 4, the engine" in out


class TestOraclesEliminate:
    """The oracles recount by the bare Smith loop and never run the index
    route or the certificate that the engine's Smith forms take: under
    --oracle every recounted matrix runs the Smith loop without transforms,
    and _bareiss, _hermite_index_rows and _certified_divisors run no more often
    than under plain compute."""

    @pytest.fixture
    def kernels(self, monkeypatch):
        return count_kernel_calls(monkeypatch, "_smith_divisors", "_certified_divisors")

    @staticmethod
    def _added_by_oracle(capsys, kernels, problem):
        """Kernel calls under compute --oracle less those under compute."""
        counts = []
        for flags in ((), ("--oracle",)):
            kernels.clear()
            code, out, err = run_cli(capsys, "compute", problem, *flags)
            assert code == 0, err
            counts.append(Counter(kernels))
        assert "oracle: agreed\n" in out
        plain, oracle = counts
        oracle.subtract(plain)
        return plain, oracle

    @pytest.mark.parametrize("k, recounts", [(2, 1), (4, 1 + 3 + 3)])
    def test_torus_recounts(self, capsys, kernels, k, recounts):
        # the stack (with k = 2 the one block), the pairwise blocks and the
        # leave-one-out stacks, all of full row rank
        rng = random.Random(2300 + k)
        maps = [
            [[rng.randint(-4, 4) for _ in range(3 * (k - 1) + 1)] for _ in range(3)]
            for _ in range(k)
        ]
        problem = json.dumps({"kind": "abelian-multi", "maps": maps})
        plain, added = self._added_by_oracle(capsys, kernels, problem)
        assert plain["_certified_divisors"] == 1
        assert added == Counter(_smith_divisors=recounts, _certified_divisors=0)

    def test_nilpotent_recounts(self, capsys, kernels):
        # quotient, central and coarse orders; the engine runs no Smith loop,
        # since the kernel basis of its wide quotient difference comes from
        # one Hermite triangulation of the graph lattice
        path = str(PROBLEMS / "six_to_heisenberg_pair.json")
        plain, added = self._added_by_oracle(capsys, kernels, path)
        assert plain == {}
        # the recount lifts its delta-vectors off that kernel basis again
        assert added == Counter({"_smith_divisors": 3, "_certified_divisors": 0})

    def test_recounts_run_none_of_the_index_route(self, capsys, monkeypatch):
        # the recounts run the bare Smith loop: no Bareiss pass, Hermite
        # pivots or minor certificate beyond plain compute's
        calls = count_kernel_calls(
            monkeypatch, "_bareiss", "_hermite_index_rows", "_certified_divisors"
        )
        for problem in (str(PROBLEMS / "example2_torus.json"), _seeded_torus(4, k=4, n=3, m=10)):
            plain, added = self._added_by_oracle(capsys, calls, problem)
            assert plain["_bareiss"] and plain["_hermite_index_rows"], plain
            assert not any(added.values()), added

    @pytest.fixture
    def lying_certificate(self, monkeypatch):
        """A certificate that claims (1, ..., 1, D) with no modular step; on
        diag(1, 1, 2, 2) the lie passes the chain checks."""

        def lying(a, index, g, basis):
            return (1,) * (a.rows - 1) + (index,)

        monkeypatch.setattr(exact_linalg, "_certified_divisors", lying)

    def test_lying_certificate_exits_2(self, capsys, lying_certificate):
        """compute prints the wrong divisors, and the oracle's elimination
        refuses them."""
        zero = [[0] * 4, [0] * 4]
        maps = [zero, [[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 2, 0], [0, 0, 0, 2]]]
        problem = json.dumps({"kind": "abelian-multi", "maps": maps})
        code, out, err = run_cli(capsys, "compute", problem, "--trace")
        assert code == 0, err
        assert "invariant factors: 1, 1, 1, 4\n" in out
        code, out, err = run_cli(capsys, "compute", problem, "--oracle")
        assert code == 2
        assert "elimination gives invariant factors (1, 1, 2, 2)" in out

    def test_lying_certificate_fails_the_snf_cross_checks(self, capsys, lying_certificate):
        """snf prints the wrong divisors, and the certificate that --oracle
        and check run beside it proves the right ones."""
        problem = _snf_problem([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
        code, out, err = run_cli(capsys, "snf", problem, "--trace")
        assert code == 0, err
        assert "invariant factors: 1, 1, 1, 4\n" in out
        code, out, _ = run_cli(capsys, "snf", problem, "--oracle")
        assert code == 2
        assert (
            "oracle: mismatch: the certificate proves [1, 1, 2, 2], "
            "the engine gives [1, 1, 1, 4]\n"
        ) in out
        code, out, _ = run_cli(capsys, "check", problem)
        assert code == 2
        assert "FAIL smith-certificate: " in out


# -- the cokernel oracle at scale -------------------------------------------------------


def test_oracle_lists_a_third_of_a_million_classes_promptly(capsys):
    # 6 * 7 * 8 * 9 * 10 * 11 = 332 640 classes, counted by the Smith and
    # Hermite order routes without listing any of them
    diagonal = [[6 + i if i == j else 0 for j in range(6)] for i in range(6)]
    zero = [[0] * 6 for _ in range(6)]
    problem = json.dumps({"kind": "abelian-pair", "maps": [zero, diagonal]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "compute", problem, "--oracle")
    assert time.perf_counter() - start < 5
    assert code == 0, err
    assert "value: 332640\n" in out
    assert "oracle: agreed\n" in out


def test_oracle_on_a_wide_rank_deficient_stack_promptly(capsys):
    # the 36x40 stacked difference has a row that is the sum of two others;
    # an unreduced Hermite basis of its columns took seconds
    rng = random.Random(3640)
    data = [[rng.randint(-4, 4) for _ in range(40)] for _ in range(36)]
    data[17] = [x + y for x, y in zip(data[3], data[29])]
    zero = [[0] * 40 for _ in range(12)]
    maps = [zero] + [data[12 * i : 12 * (i + 1)] for i in range(3)]
    problem = json.dumps({"kind": "abelian-multi", "maps": maps})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "compute", problem, "--oracle")
    assert time.perf_counter() - start < 5
    assert code == 0, err
    assert "value: infinite\n" in out
    assert "oracle: agreed\n" in out


# -- the Hermite oracle ------------------------------------------------------------------


HEIS = {"generators": ["a", "b"], "central": ["c"], "commutators": [["a", "b", {"c": 1}]]}
HEIS_IDENTITY_PAIR = json.dumps(
    {
        "kind": "nilpotent",
        "domain": HEIS,
        "codomain": HEIS,
        "maps": [{"a": {"a": 1}, "b": {"b": 1}, "c": {"c": 1}}] * 2,
    }
)
TALL_TORUS = json.dumps(
    {"kind": "abelian-multi", "maps": [[[1], [2], [3]], [[0], [1], [5]], [[2], [2], [2]]]}
)


def _oracle_run(capsys, problem):
    code, out, err = run_cli(
        capsys, "compute", problem, "--oracle", "--trace", "--format", "structured"
    )
    return code, json.loads(out), err


def _seeded_torus(seed, k, n, m):
    rng = random.Random(seed)
    maps = [[[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)] for _ in range(k)]
    return json.dumps({"kind": "abelian-multi", "maps": maps})


# a 2x3 pair whose one difference block has cokernel order 4
PAIR_OF_FOUR = json.dumps(
    {"kind": "abelian-pair", "maps": [[[1, 2, 0], [0, 1, 3]], [[3, 2, 4], [0, 3, 9]]]}
)


class TestHermiteOracle:
    """compute --oracle recounts the value, every pairwise value and |ker Psi|
    by the order route the engine did not take, with no cap on the class
    count and for infinite values too."""

    def test_agrees_above_a_million_classes(self, capsys):
        problem = json.dumps({"kind": "abelian-pair", "maps": [[[0]], [[2000003]]]})
        code, doc, err = _oracle_run(capsys, problem)
        assert code == 0, err
        assert doc["value"] == 2000003
        assert doc["oracle_status"] == "agreed"

    @pytest.mark.parametrize(
        "problem", [TALL_TORUS, HEIS_IDENTITY_PAIR], ids=["tall-torus", "heisenberg-identity"]
    )
    def test_agrees_on_infinite_values(self, capsys, problem):
        code, doc, err = _oracle_run(capsys, problem)
        assert code == 0, err
        assert doc["value"] == "infinite"
        assert doc["oracle_status"] == "agreed"

    def test_half_a_million_classes_in_under_a_second(self, capsys):
        problem = _seeded_torus(1, k=3, n=4, m=8)
        start = time.perf_counter()
        code, doc, err = _oracle_run(capsys, problem)
        assert time.perf_counter() - start < 1
        assert code == 0, err
        assert doc["value"] >= 500_000
        assert doc["oracle_status"] == "agreed"
        ker = doc["intermediates"]["ker_psi_order"]
        assert f"oracle: value over pairwise product confirms |ker Psi| = {ker}" in doc["trace"]

    # with two maps the oracle compares the engine's own two reductions of
    # the one block, so a wrong value or pairwise value still shows
    @pytest.mark.parametrize(
        "field, problem",
        [
            pytest.param(field, problem, id=field + suffix)
            for suffix, problem in (
                ("", str(PROBLEMS / "example2_torus.json")),
                ("-k2", PAIR_OF_FOUR),
            )
            for field in ("value", "pairwise", "ker_psi_order")
        ],
    )
    def test_wrong_abelian_report_is_a_mismatch(self, capsys, monkeypatch, field, problem):
        original = cli.reid_multi

        def wrong(system):
            report = original(system)
            if field == "value":
                report.value = Cardinal(report.value.value + 1)
            elif field == "pairwise":
                report.pairwise = (Cardinal(report.pairwise[0].value + 1),) + report.pairwise[1:]
            else:
                report.ker_psi_order = Cardinal(report.ker_psi_order.value + 1)
            return report

        monkeypatch.setattr(cli, "reid_multi", wrong)
        code, doc, _ = _oracle_run(capsys, problem)
        assert code == 2
        assert doc["oracle_status"].startswith("mismatch:")

    def test_wrong_leave_one_out_value_is_a_mismatch(self, capsys, monkeypatch):
        original = cli.divisibility_report

        def wrong(system, report):
            div = original(system, report)
            first, *rest = div.leave_one_out
            div.leave_one_out = (Cardinal(first.value + 1), *rest)
            return div

        monkeypatch.setattr(cli, "divisibility_report", wrong)
        code, doc, _ = _oracle_run(capsys, str(PROBLEMS / "example2_torus.json"))
        assert code == 2
        assert doc["oracle_status"] == (
            "mismatch: the oracle gives value 10, pairwise values 1, 2, 1 and "
            "leave-one-out values 2, 1, 2, the engine gives value 10, pairwise "
            "values 1, 2, 1 and leave-one-out values 3, 1, 2"
        )

    def test_modulus_off_the_wrong_row_is_a_mismatch(self, capsys, monkeypatch):
        # a wide stack's modulus read off the Bareiss pass's row -2, whose
        # (n-1)-minors need not be multiples of the index: the engine's
        # orders come out wrong, and the bare Smith loop's recount differs
        original = exact_linalg._bareiss

        def wrong_row(a, **kwargs):
            result = original(a, **kwargs)
            if len(a) > 1:
                a[-1] = a[-2]
            return result

        problem = _seeded_torus(1, k=3, n=2, m=5)
        code, out, err = run_cli(capsys, "compute", problem, "--oracle")
        assert code == 0, err
        assert "value: 7\n" in out
        monkeypatch.setattr(exact_linalg, "_bareiss", wrong_row)
        code, out, _ = run_cli(capsys, "compute", problem, "--oracle")
        assert code == 2
        assert "oracle: mismatch: " in out

    def test_wrong_nilpotent_value_is_a_mismatch(self, capsys, monkeypatch):
        original = cli.reid_nilpotent_multi

        def wrong(homs):
            report = original(homs)
            report.value = Cardinal(report.value.value + 1)
            return report

        monkeypatch.setattr(cli, "reid_nilpotent_multi", wrong)
        code, doc, _ = _oracle_run(capsys, str(PROBLEMS / "heisenberg_pair.json"))
        assert code == 2
        assert doc["oracle_status"].startswith("mismatch:")


# -- |ker Psi| by the paper's factorisation -----------------------------------------------


def _x6_torus(seed, k, n, m):
    """_seeded_torus with map 1 the zero matrix and maps 2..k times 6, so
    every pairwise value is above 1."""
    maps = json.loads(_seeded_torus(seed, k, n, m))["maps"]
    maps = [[[0] * m for _ in range(n)]] + [[[6 * x for x in row] for row in h] for h in maps[1:]]
    return json.dumps({"kind": "abelian-multi", "maps": maps})


class TestKerPsiByQuotient:
    """compute takes |ker Psi| as the value over the pairwise product and
    raises when that product does not divide; check alone recounts it as a
    lattice index."""

    @pytest.fixture
    def index_calls(self, monkeypatch):
        """Wrap lattice_index and ker_psi_order in every module that binds
        them; the returned Counter counts their calls by name."""
        calls = Counter()
        for original in (exact_linalg.lattice_index, abelian.ker_psi_order):

            def counting(*args, _original=original, **kwargs):
                calls[_original.__name__] += 1
                return _original(*args, **kwargs)

            for ns in (coincidence_kit, abelian, cli, exact_linalg):
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        monkeypatch.setattr(ns, attr, counting)
        return calls

    @pytest.mark.parametrize(
        "problem",
        [str(PROBLEMS / "example2_torus.json"), _x6_torus(36, k=4, n=3, m=10)],
        ids=["example2_torus", "seeded-x6"],
    )
    def test_compute_takes_no_lattice_index(self, capsys, index_calls, problem):
        expected = abelian.ker_psi_order(AbelianSystem(cli.load_problem(problem)["maps"]))
        index_calls.clear()
        doc = run_structured(capsys, problem)
        assert not index_calls, index_calls
        assert max(doc["pairwise"]) > 1
        assert doc["intermediates"]["ker_psi_order"] == expected.to_json()

    def test_a_product_that_does_not_divide_exits_2(self, capsys, monkeypatch):
        original = abelian._cokernel_order

        def second_block_reads_3(m, **multiple):
            return Cardinal(3) if m == system.blocks[1] else original(m, **multiple)

        path = str(PROBLEMS / "example2_torus.json")
        system = AbelianSystem(cli.load_problem(path)["maps"])
        code, out, err = run_cli(capsys, "compute", path)
        assert code == 0, err
        monkeypatch.setattr(abelian, "_cokernel_order", second_block_reads_3)
        code, out, err = run_cli(capsys, "compute", path)
        assert code == 2
        assert out == ""
        assert err == "consistency failure: pairwise product 3 does not divide the value 10\n"

    def test_check_compares_the_quotient_with_the_lattice_index(self, capsys, monkeypatch):
        original = cli.ker_psi_order
        monkeypatch.setattr(cli, "ker_psi_order", lambda s: Cardinal(original(s).value + 1))
        code, out, _ = run_cli(capsys, "check", str(PROBLEMS / "example2_torus.json"))
        assert code == 2
        assert "FAIL quotient-equals-ker-psi: quotient 5, |ker Psi| 6\n" in out


class TestLyingStackedOrder:
    """reid_multi passes the stacked value to each pairwise order as a known
    multiple.  Forced to 1, it makes example2_torus's pairwise values
    1, 1, 1 instead of 1, 2, 1; the oracle's bare Smith loop and check's
    lattice index, which take no multiple, must both catch that."""

    @pytest.fixture
    def lying(self, monkeypatch):
        original = abelian._cokernel_order

        def forced_to_one(m, *, multiple=0):
            return original(m, multiple=multiple and 1)

        monkeypatch.setattr(abelian, "_cokernel_order", forced_to_one)

    def test_the_oracle_finds_a_pairwise_mismatch(self, capsys, lying):
        code, out, _ = run_cli(capsys, "compute", str(PROBLEMS / "example2_torus.json"), "--oracle")
        assert code == 2
        assert "pairwise: 1, 1, 1\n" in out
        assert (
            "oracle: mismatch: the oracle gives value 10, pairwise values 1, 2, 1 "
            "and leave-one-out values 2, 1, 2, the engine gives value 10, pairwise "
            "values 1, 1, 1 and leave-one-out values 2, 1, 2\n"
        ) in out

    def test_check_fails(self, capsys, lying):
        code, out, _ = run_cli(capsys, "check", str(PROBLEMS / "example2_torus.json"))
        assert code == 2
        assert "FAIL quotient-equals-ker-psi: quotient 10, |ker Psi| 5\n" in out


# -- the Smith certificate ----------------------------------------------------------------


def _snf_problem(matrix):
    return json.dumps({"kind": "snf", "matrix": matrix})


def _seeded_matrix(seed, n):
    rng = random.Random(seed)
    return [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]


class TestSmithCertificate:
    """check and --oracle prove the divisors at every size, by the unimodular
    transforms of s @ m @ t == d."""

    BIG = _snf_problem(
        [[(3 * i + 5 * j * j + i * j) % 11 - 5 for j in range(16)] for i in range(16)]
    )
    SEEDED = _snf_problem(_seeded_matrix(4848, 48))
    SQUARE = _snf_problem(_seeded_matrix(1616, 16))  # det 3 215 286 139 594

    @pytest.mark.parametrize("problem", [BIG, SEEDED], ids=["16x16", "48x48"])
    def test_check_certifies(self, capsys, problem):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "check", problem, "--format", "structured")
        assert time.perf_counter() - start < 10
        assert code == 0, err
        doc = json.loads(out)
        (check,) = doc["intermediates"]["checks"]
        assert check["name"] == "smith-certificate"
        assert check["passed"] is True
        assert "skipped" not in check["detail"]
        assert doc["oracle_status"] == "absent"
        code, out, err = run_cli(capsys, "check", problem)
        assert code == 0, err
        assert "PASS smith-certificate: " in out

    @pytest.mark.parametrize("command", ["compute", "snf"])
    @pytest.mark.parametrize("problem", [BIG, SEEDED], ids=["16x16", "48x48"])
    def test_oracle_flag_certifies(self, capsys, command, problem):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, command, problem, "--oracle", "--trace", "--format", "structured"
        )
        assert time.perf_counter() - start < 10
        assert code == 0, err
        doc = json.loads(out)
        assert doc["oracle_status"] == "agreed"
        assert doc["trace"][-1].startswith("oracle: unimodular s, t")

    def test_non_unimodular_transform_exits_2(self, capsys, doubled_last_divisor):
        """A Smith loop that doubles the row of s of the last divisor, and
        that divisor with it, keeps s @ m @ t == d and the divisor chain;
        only the certificate sees it."""
        # BIG has rank 9, so plain snf reduces the Hermite rows of its
        # columns (tall, with a zero row); the square input is nonsingular,
        # so plain snf reads its divisors off the minor certificate; neither
        # runs the loop with t
        tall = _snf_problem(json.loads(self.BIG)["matrix"] + [[0] * 16])
        for problem in (tall, self.SQUARE):
            code, _, err = run_cli(capsys, "snf", problem)
            assert code == 0, err
            code, out, err = run_cli(capsys, "snf", problem, "--oracle")
            assert code == 2
            assert out == ""
            assert "not unimodular" in err
            code, _, err = run_cli(capsys, "check", problem)
            assert code == 2
            assert "not unimodular" in err

    # CI's seeded 48 x 48 input of rank 47: its last row is row 0 - 2 row 1
    DEFICIENT = _seeded_matrix(47, 48)[:47]
    DEFICIENT = _snf_problem(
        DEFICIENT + [[x - 2 * y for x, y in zip(DEFICIENT[0], DEFICIENT[1])]]
    )

    @pytest.mark.parametrize("argv", [["snf"], ["snf", "--oracle"], ["check"]])
    def test_rank_deficient_transforms_run_only_in_the_certificate(
        self, capsys, monkeypatch, argv
    ):
        """An input short of full row rank gets its divisors from the Hermite
        rows of its columns, with no transforms; the proof runs the loop with
        them once, in certify_smith, and takes det s and det t."""
        calls = count_kernel_calls(monkeypatch, "_smith_with_transforms", "determinant")
        command, *flags = argv
        code, out, err = run_cli(capsys, command, self.DEFICIENT, *flags, "--format", "structured")
        assert code == 0, err
        proofs = 0 if argv == ["snf"] else 1
        assert calls == Counter(_smith_with_transforms=proofs, determinant=2 * proofs)
        doc = json.loads(out)
        assert doc["value"] == "infinite"
        if flags:
            assert doc["oracle_status"] == "agreed"

    def test_doubled_kernel_column_of_t_exits_2(self, capsys, monkeypatch):
        """Doubling a kernel column of the certificate's t keeps
        s @ m @ t == d, since m sends that column to 0, but makes
        det t = +-2: plain snf prints, and the proof refuses."""
        original = exact_linalg._smith_divisors

        def doubling(rows, t=None):
            divisors = original(rows, t)
            if t is not None:
                t[-1] = [2 * x for x in t[-1]]
            return divisors

        monkeypatch.setattr(exact_linalg, "_smith_divisors", doubling)
        code, _, err = run_cli(capsys, "snf", self.DEFICIENT)
        assert code == 0, err
        for argv in (["snf", "--oracle"], ["check"]):
            code, out, err = run_cli(capsys, argv[0], self.DEFICIENT, *argv[1:])
            assert code == 2
            assert out == ""
            assert "smith transform t is not unimodular: det t = " in err

    @pytest.mark.parametrize(
        "argv", [["snf", "--oracle"], ["compute", "--oracle"], ["check"]]
    )
    def test_nonsingular_square_is_eliminated_once(self, capsys, monkeypatch, argv):
        # the engine's one Bareiss pass and one run of the Smith loop without
        # t on its 16 x 16 Hermite basis modulo gcd(g, D), which give the
        # printed divisors, then the proof: one run of the loop with t and
        # the determinants of s and t
        calls = count_kernel_calls(monkeypatch, "_smith_divisors", "_bareiss")
        command, *flags = argv
        code, _, err = run_cli(capsys, command, self.SQUARE, *flags)
        assert code == 0, err
        assert calls == {"_smith_divisors": 1, "_smith_divisors with t": 1, "_bareiss": 3}


class TestSmithRoutesShareNoLoop:
    """The Smith loop with transforms runs only inside certify_smith: the
    engine's routes (smith_normal_form, kernel_basis, unimodular_inverse,
    central_extension_data) never pass it t, so the snf certificate shares
    no run of the loop with the divisors it proves."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """(t passed, inside certify_smith) of each run of the Smith loop."""
        runs, depth = [], [0]
        loop, certify = exact_linalg._smith_divisors, exact_linalg.certify_smith

        def recording(rows, t=None):
            runs.append((t is not None, depth[0] > 0))
            return loop(rows, t)

        def certifying(m):
            depth[0] += 1
            try:
                return certify(m)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(exact_linalg, "_smith_divisors", recording)
        monkeypatch.setattr(cli, "certify_smith", certifying)
        return runs

    def test_engine_routes_never_pass_t(self, runs):
        from coincidence_kit.errors import StructureError
        from coincidence_kit.nilpotent import PcGroup, central_extension_data

        rng = random.Random(3801)
        for i in range(60):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            data = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            if i % 2 and rows > 1:  # a dependent row
                data[-1] = [x - 2 * y for x, y in zip(data[0], data[1 % (rows - 1)])]
            m = IntMatrix([[(i % 4 + 1) * x for x in row] for row in data])
            exact_linalg.smith_normal_form(m)
            exact_linalg.kernel_basis(m)
        unimodular = IntMatrix([[2, 3, 1], [1, 2, 1], [1, 1, 1]])
        exact_linalg.unimodular_inverse(unimodular)
        def group(word):
            return PcGroup.from_presentation(["a", "b"], ["c1", "c2"], {("a", "b"): word})

        central_extension_data(group({"c1": 2, "c2": 3}))
        with pytest.raises(StructureError, match=r"invariant factors \(2,\)"):
            central_extension_data(group({"c1": 2, "c2": 4}))
        # the scaled inputs reduce their Hermite bases without t
        assert runs and not any(t for t, _ in runs)

    @pytest.mark.parametrize("argv", [["snf", "--oracle"], ["check"]])
    def test_snf_proof_runs_the_loop_with_t_once(self, capsys, runs, argv):
        command, *flags = argv
        code, _, err = run_cli(capsys, command, TestSmithCertificate.DEFICIENT, *flags)
        assert code == 0, err
        assert [run for run in runs if run[0]] == [(True, True)]

    def test_nilpotent_compute_on_a_skew_pair_runs_no_smith_loop(self, capsys, runs):
        # [a, b] = c1^2 c2^3; the second map scales a and b by 2 and the
        # centre by 4
        skew = {
            "generators": ["a", "b"],
            "central": ["c1", "c2"],
            "commutators": [["a", "b", {"c1": 2, "c2": 3}]],
        }
        doubled = [[2, 0, 1, 0], [0, 2, 0, -1], [0, 0, 4, 0], [0, 0, 0, 4]]
        identity = [[int(i == j) for j in range(4)] for i in range(4)]
        problem = json.dumps(
            {"kind": "nilpotent", "domain": skew, "codomain": skew, "maps": [identity, doubled]}
        )
        code, out, err = run_cli(capsys, "compute", problem)
        assert code == 0, err
        assert "value: infinite" not in out
        assert runs == []


# -- checks at the input ------------------------------------------------------------------


@pytest.mark.parametrize("path", PROBLEM_FILES, ids=[p.stem for p in PROBLEM_FILES])
def test_only_the_input_takes_the_public_matrix_constructor(capsys, monkeypatch, path):
    """compute checks each input matrix once, where the parser reads the
    document and can name an entry's JSON location; the IntMatrix it hands
    the engines, and every matrix they compute from it, is built unchecked,
    so the public constructor is never called."""
    init, built = IntMatrix.__init__, []

    def counting(m, data, **kwargs):
        data = [list(row) for row in data]
        built.append(data)
        init(m, data, **kwargs)

    monkeypatch.setattr(IntMatrix, "__init__", counting)
    assert cli.main(["compute", str(path)]) == 0
    assert built == []


@pytest.mark.parametrize(
    "images",
    [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1.0]],
        {"a": {"a": 1}, "b": {"b": 1.5}},
        [[1, 0, 0], [0, 1, 0], [0, 0, True]],
    ],
    ids=["float-vector", "float-dict", "bool-vector"],
)
def test_a_map_exponent_that_is_no_integer_exits_1(capsys, images):
    heis = {"generators": ["a", "b"], "central": ["c"], "commutators": [["a", "b", [1]]]}
    problem = {
        "kind": "nilpotent", "domain": heis, "codomain": heis,
        "maps": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], images],
    }
    code, out, err = run_cli(capsys, "compute", json.dumps(problem))
    assert code == 1
    assert out == ""
    assert "maps[1]" in err and "expected an integer" in err


# -- package surface ---------------------------------------------------------------------


def test_every_exported_name_resolves():
    modules = [coincidence_kit] + [
        importlib.import_module(f"coincidence_kit.{info.name}")
        for info in pkgutil.iter_modules(coincidence_kit.__path__)
    ]
    assert len(modules) > 5
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_runtime_imports_are_stdlib_only():
    # the package runs on the standard library alone; sympy and pytest serve
    # only the tests
    package = Path(coincidence_kit.__file__).resolve().parent
    paths = sorted(package.glob("*.py"))
    assert len(paths) > 5
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


# -- console entry point ---------------------------------------------------------------


def run_module(*argv):
    # src on the child's path, so it runs from a bare checkout too
    src = str(PROBLEMS.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, "-m", "coincidence_kit.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")},
    )


def test_module_entry_point_runs():
    result = run_module("compute", str(PROBLEMS / "snf_worked.json"))
    assert result.returncode == 0
    assert "value: 2" in result.stdout


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["prog"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert cli.main(["compute", str(PROBLEMS / "snf_worked.json")]) == 0
    finally:
        cli._parser.cache_clear()
    # one top-level parser and its three subcommand parsers
    assert built == [
        "coincidence-kit",
        "coincidence-kit compute",
        "coincidence-kit snf",
        "coincidence-kit check",
    ]


def test_kept_parser_prints_as_fresh_interpreters(capsys, monkeypatch):
    """A usage error and then a valid run in one process print the same
    streams and exit codes as each run in its own interpreter."""
    monkeypatch.setenv("COLUMNS", "80")
    runs = [["frobnicate", "x"], ["compute", str(PROBLEMS / "heisenberg_pair.json")]]
    in_process = []
    for argv in runs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    fresh = [run_module(*argv) for argv in runs]
    assert in_process == [(r.returncode, r.stdout, r.stderr) for r in fresh]
    assert [code for code, _, _ in in_process] == [1, 0]


@pytest.mark.parametrize(
    "matrix, code, value",
    [
        ('[["\u00b2"]]', 1, None),  # a digit to isdigit(), not to int()
        (json.dumps([["1" + "0" * 2999, 0], [0, "1" + "0" * 2999]]), 0, "1" + "0" * 5998),
        (json.dumps([["7" + "0" * 4999]]), 0, "7" + "0" * 4999),
        ("[[7" + "0" * 4999 + "]]", 0, "7" + "0" * 4999),
    ],
    ids=["superscript-two", "order-of-5999-digits", "5000-digit-string", "5000-digit-literal"],
)
def test_integers_of_any_length_never_end_in_a_traceback(matrix, code, value):
    # a fresh interpreter, which starts with CPython's int-to-str digit limit
    result = run_module("snf", '{"kind": "snf", "matrix": %s}' % matrix)
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    if value is not None:
        assert f"value: {value}\n" in result.stdout
