"""Command-line front end: shipped problem files reproduce their golden
values, output is byte-deterministic, the structured format round-trips,
and every documented exit code is reachable."""

from __future__ import annotations

import importlib
import json
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import coincidence_kit
from coincidence_kit import cli, exact_linalg
from coincidence_kit.finite import cyclic_group, twisted_reidemeister, FiniteHom

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


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
        assert len(files) == 5
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
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute"])
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


class TestClosureCapEnv:
    def test_tight_cap_blocks_builtin(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.CLOSURE_CAP_ENV, "50")
        code, _, err = run_cli(
            capsys, "compute", str(PROBLEMS / "example1_poincare.json")
        )
        assert code == 1
        assert "cap of 50" in err

    def test_generous_cap_allows_builtin(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.CLOSURE_CAP_ENV, "200")
        code, out, _ = run_cli(
            capsys, "compute", str(PROBLEMS / "example1_poincare.json")
        )
        assert code == 0
        assert "value: 120\n" in out

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
    """Each matrix is Smith-reduced at most once per compute or snf call.

    cli, abelian and nilpotent import smith_normal_form by name, so the
    counting wrapper replaces it in every namespace that binds it."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        namespaces = [coincidence_kit] + [
            importlib.import_module(f"coincidence_kit.{name}")
            for name in ("cli", "abelian", "exact_linalg", "finite", "nilpotent")
        ]
        original = exact_linalg.smith_normal_form
        seen = Counter()

        def counting(m):
            seen[m] += 1
            return original(m)

        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    monkeypatch.setattr(ns, attr, counting)
        return seen

    def _assert_each_once(self, capsys, reductions, *argv):
        reductions.clear()
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        repeated = [(m.rows, m.cols, n) for m, n in reductions.items() if n > 1]
        assert not repeated, (argv, repeated)
        return sum(reductions.values())

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
        # stacked, three pairwise and three leave-one-out matrices
        assert self._assert_each_once(capsys, reductions, "compute", problem) == 7
        # pairwise values above 1 add the lattice-index reduction
        total = self._assert_each_once(
            capsys, reductions, "compute", str(PROBLEMS / "example2_torus.json")
        )
        assert total == 8

    def test_abelian_oracle_enumerates_once(self, capsys, reductions, monkeypatch):
        original = exact_linalg.enumerate_cokernel
        enumerated = []

        def counting(m, **kwargs):
            enumerated.append(m)
            return original(m, **kwargs)

        for name in ("cli", "abelian", "exact_linalg"):
            ns = importlib.import_module(f"coincidence_kit.{name}")
            monkeypatch.setattr(ns, "enumerate_cokernel", counting)
        total = self._assert_each_once(
            capsys, reductions, "compute", str(PROBLEMS / "example2_torus.json"), "--oracle"
        )
        assert total == 8  # the same Smith forms as without --oracle
        assert len(enumerated) == 1


# -- the gcd-of-minors oracle cap --------------------------------------------------------


class TestMinorsOracleCap:
    BIG = json.dumps(
        {
            "kind": "snf",
            "matrix": [
                [(3 * i + 5 * j * j + i * j) % 11 - 5 for j in range(16)]
                for i in range(16)
            ],
        }
    )

    def test_check_skips_minors_promptly(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "check", self.BIG, "--format", "structured")
        assert time.perf_counter() - start < 10
        assert code == 0, err
        doc = json.loads(out)
        (check,) = doc["intermediates"]["checks"]
        assert check["name"] == "divisors-vs-minors"
        assert check["passed"] is True
        assert check["detail"].startswith("skipped: ")
        assert doc["oracle_status"] == "absent"

    @pytest.mark.parametrize("command", ["compute", "snf"])
    def test_oracle_flag_reports_the_skip(self, capsys, command):
        code, out, err = run_cli(
            capsys, command, self.BIG, "--oracle", "--trace", "--format", "structured"
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["oracle_status"] == "absent"
        assert doc["trace"][-1].startswith("oracle: skipped, ")


# -- console entry point ---------------------------------------------------------------


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "coincidence_kit.cli", "compute",
         str(PROBLEMS / "snf_worked.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "value: 2" in result.stdout
