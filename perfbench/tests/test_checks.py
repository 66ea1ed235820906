"""Each correctness check passes right output and rejects a planted wrong answer."""

import contextlib
import copy
import io
import json

import numpy as np
import pytest

import checks
import opineq as oq
from opineq import cli
from workloads import random_symmetric


@pytest.fixture(scope="module")
def floor_failures():
    report = oq.run_campaign(oq.TrialSpec(seed=5, trials=3, dim_range=(3, 3)))
    records = [f for f in report.failures if f["label"] in checks.FLOOR_LABELS]
    assert {r["label"] for r in records} == set(checks.FLOOR_LABELS)
    return records


@pytest.fixture(scope="module")
def check_output(tmp_path_factory):
    rng = np.random.default_rng(0)
    a = random_symmetric(rng, 4, 0.5, 3.0)
    path = tmp_path_factory.mktemp("instance") / "A.json"
    path.write_text(json.dumps({"dim": 4, "data": a.reshape(-1).tolist()}))
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["check", "--matrix", str(path), "--map", "corner", "--function", "power:3", "--json"])
    return a, json.loads(buffer.getvalue()), code


def test_spectrum_check_accepts_jacobi_and_rejects_a_perturbed_eigenvalue():
    a = random_symmetric(np.random.default_rng(1), 6, -2.0, 2.0)
    lam = np.array(oq.eigendecompose(oq.SymmetricMatrix(a)).eigenvalues)
    assert checks.check_spectrum(a, lam) == []
    lam[2] += 1e-7 * np.abs(lam).max()
    assert checks.check_spectrum(a, lam)


def test_floor_check_confirms_real_violations(floor_failures):
    for record in floor_failures:
        assert checks.check_floor_record(record) == []


def test_floor_check_rejects_a_falsified_record(floor_failures):
    for record in floor_failures:
        near_flat = copy.deepcopy(record)
        dim = near_flat["inputs"]["dim"]
        rho = np.diag(np.linspace(0.9, 1.1, dim))
        near_flat["inputs"]["rho"] = (rho / np.trace(rho)).reshape(-1).tolist()
        assert checks.check_floor_record(near_flat), "a floor that holds passed as a violation"
        wrong_slack = copy.deepcopy(record)
        wrong_slack["slack"] *= 1.5
        assert checks.check_floor_record(wrong_slack), "a wrong recorded slack passed"


def test_instance_check_accepts_the_cli_report(check_output):
    a, payload, code = check_output
    assert checks.check_instance_report(a, "corner", None, "power:3", payload, code) == []


def test_instance_check_rejects_a_flipped_all_hold(check_output):
    a, payload, code = check_output
    flipped = dict(payload, all_hold=not payload["all_hold"])
    assert checks.check_instance_report(a, "corner", None, "power:3", flipped, code)


def test_instance_check_rejects_wrong_matrices_and_constants(check_output):
    a, payload, code = check_output
    wrong = copy.deepcopy(payload)
    wrong["reports"][0]["lhs"][0][0] += 1e-6
    assert checks.check_instance_report(a, "corner", None, "power:3", wrong, code)
    wrong = dict(payload, alpha=payload["alpha"] * (1 + 1e-6))
    assert checks.check_instance_report(a, "corner", None, "power:3", wrong, code)
    assert checks.check_instance_report(a, "corner", None, "power:3", payload, 1)


def test_worked_examples_check_knows_the_exact_values():
    exact = {k: float(checks.WORKED_EXAMPLES[k]) for k in
             ("cube_f_phi_A", "cube_phi_fA", "classical_gap", "improved_gap")}
    assert checks.check_worked_examples(exact) == []
    assert checks.check_worked_examples(dict(exact, improved_gap=exact["improved_gap"] + 1e-9))


def test_aggregate_and_coverage_checks():
    aggregates = {"von_neumann_floor": {"fail": 3}, "jensen_upper": {"fail": 0}}
    assert checks.check_campaign_aggregates(aggregates) == []
    aggregates["jensen_upper"]["fail"] = 1
    assert checks.check_campaign_aggregates(aggregates)
    labels = oq.registered_inequalities()
    assert checks.check_coverage(labels, labels) == []
    assert checks.check_coverage(labels[1:], labels)
