"""Self-tests of the benchmark: the references reproduce known values, the
generators are deterministic per seed, and the tracer sees every namespace.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

from problems import WORKLOADS, generate  # noqa: E402
from references import INFINITE, cokernel_order, invariant_factors, reference  # noqa: E402
from run import classify  # noqa: E402

HEIS = {"generators": ["a", "b"], "central": ["c"], "commutators": [["a", "b", {"c": 1}]]}
SIX = {
    "generators": ["a", "b", "d", "t"],
    "central": ["c", "e"],
    "commutators": [["a", "b", {"c": 1}], ["a", "d", {"e": 1}]],
}


def shipped(name):
    with open(ROOT / "problems" / name, encoding="utf-8") as fh:
        return json.load(fh)


# -- references ------------------------------------------------------------------------


def test_torus_worked_system():
    ref = reference(shipped("example2_torus.json"))
    assert ref.value == 10
    assert ref.ker_psi == 5
    assert ref.pairwise == (1, 2, 1)


def test_snf_worked_divisors():
    ref = reference(shipped("snf_worked.json"))
    assert ref.divisors == (1, 2)
    assert ref.value == 2


def test_binary_icosahedral_two_projections_and_constant():
    assert reference(shipped("example1_poincare.json")).value == 120


def test_s4_square_four_maps():
    s4 = {"permutations": [[1, 0, 2, 3], [1, 2, 3, 0]]}
    doc = {
        "kind": "finite",
        "groups": {"G": s4, "D": {"product": ["G", "G"]}},
        "domain": "D",
        "codomain": "G",
        "maps": [{"projection": 0}, {"projection": 1}, {"projection": 0}, {"constant": True}],
    }
    assert reference(doc).value == 24


def test_stretch_and_flip_heisenberg_pair():
    assert reference(shipped("heisenberg_pair.json")).value == 16


def test_fiberwise_witness_has_unequal_fibers():
    """The six-generator pair on which the equal-fiber formula gives 2."""
    phi = [(-1, -2, 1), (-1, -1, -1), (1, 1, -3), (0, 0, -2), (0, 0, -1), (0, 0, 1)]
    psi = [(-1, 1, -3), (-3, 2, -2), (-3, 2, -5), (0, 0, 0), (0, 0, 1), (0, 0, 1)]
    doc = {"kind": "nilpotent", "domain": SIX, "codomain": HEIS, "maps": [phi, psi]}
    ref = reference(doc)
    assert ref.value == 3
    assert ref.unequal_fibers


def test_rotation_pair_is_infinite():
    doc = {
        "kind": "nilpotent",
        "domain": HEIS,
        "codomain": HEIS,
        "maps": [[(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, -1, 0), (1, 0, 0), (0, 0, 1)]],
    }
    assert reference(doc).value == INFINITE


def test_hermite_references_match_smith_on_random_matrices():
    from coincidence_kit import IntMatrix, smith_normal_form
    from coincidence_kit import cokernel_order as engine_order

    rng = random.Random(5)
    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        bound = rng.choice([1, 2, 4, 9])
        m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.2:
            m[-1] = [2 * x for x in m[0]]
        assert invariant_factors(m) == smith_normal_form(IntMatrix(m)).divisors
        columns = [list(c) for c in zip(*m)]
        assert cokernel_order(columns, rows) == engine_order(IntMatrix(m)).to_json()


# -- generators ------------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_problems(workload):
    first = json.dumps(generate(workload, 7, ROOT), sort_keys=True)
    again = json.dumps(generate(workload, 7, ROOT), sort_keys=True)
    other = json.dumps(generate(workload, 8, ROOT), sort_keys=True)
    assert first == again
    assert first != other


def test_exact_determinant_matches_the_package():
    from coincidence_kit import IntMatrix, determinant
    from problems import _det

    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            m[-1] = list(m[0])
        assert _det(m) == determinant(IntMatrix(m))


def test_reduction_scope():
    """The rotation against the identity has equal sublattice determinants
    and a nonsingular quotient difference: the engine cannot reduce it."""
    from problems import _heis_matrices, _reduction_applies

    identity = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rotation = [(0, -1, 0), (1, 0, 0), (0, 0, 1)]
    squaring = [(2, 0, 0), (0, 2, 0), (0, 0, 4)]
    assert not _reduction_applies(_heis_matrices(identity), _heis_matrices(rotation))
    assert _reduction_applies(_heis_matrices(identity), _heis_matrices(identity))
    assert _reduction_applies(_heis_matrices(identity), _heis_matrices(squaring))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_enough_problems_beyond_p90(workload):
    assert len(generate(workload, 1, ROOT)) >= 100


# -- classification and tracing ----------------------------------------------------------


def test_classify_outcomes():
    ref = reference(shipped("example2_torus.json"))
    ok = {"value": 10, "pairwise": [1, 2, 1], "intermediates": {"ker_psi_order": 5}}
    wrong = dict(ok, value=11)
    assert classify({"code": 0, "stdout": json.dumps(ok), "stderr": ""}, ref)[0] == "ok"
    assert classify({"code": 0, "stdout": json.dumps(wrong), "stderr": ""}, ref)[0] == "wrong"
    assert classify({"code": 0, "stdout": json.dumps(ok), "stderr": ""}, None)[0] == "unverified"
    capped = {"code": 1, "stdout": "", "stderr": "error: estimated work 9 exceeds the cap 1"}
    assert classify(capped, ref)[0] == "refused"
    assert classify({"code": 3, "stdout": "{}", "stderr": ""}, ref)[0] == "refused"
    assert classify({"code": 1, "stdout": "", "stderr": "error: bad field"}, ref)[0] == "errored"


def test_problem_times_are_medians_at_reference_speed():
    from run import problem_times

    result = {"times": [[0.010, 0.030, 0.012]], "scales": [[1.0, 0.5, 0.5]]}
    assert problem_times(result) == [0.010]
    assert problem_times(result, raw=True) == [0.012]


def test_tracer_sees_imported_names_and_restores_them():
    from coincidence_kit import abelian, cli, exact_linalg
    from tracing import Tracer

    original = exact_linalg.smith_normal_form
    tracer = Tracer()
    tracer.begin_pass()
    try:
        assert abelian.smith_normal_form is not original
        assert cli.smith_normal_form is abelian.smith_normal_form
        tracer.problem = "p0"
        cli.main(["compute", json.dumps(shipped("example2_torus.json")), "--format", "structured"])
    finally:
        tracer.end_pass()
    assert exact_linalg.smith_normal_form is original
    assert abelian.smith_normal_form is original
    names = {span[3] for span in tracer.spans}
    assert {"cli.main", "abelian.reid_multi", "exact_linalg.smith_normal_form"} <= names
    roots = [span for span in tracer.spans if span[2] == -1]
    assert [span[3] for span in roots] == ["cli.main"]
    metrics = tracer.metrics()
    assert metrics["exact_linalg.snf_calls"]["value"] > 0
    assert metrics["finite.self_s"]["value"] == 0
