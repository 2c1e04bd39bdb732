import json

import pytest

from cosym3 import check_three_cosymplectic, small_operators

import cases

GOLDEN = json.loads(cases.GOLDEN_PATH.read_text())
CLI_GOLDEN = json.loads(cases.CLI_GOLDEN_PATH.read_text())
SLOW_CLI_GOLDEN = json.loads(cases.SLOW_CLI_GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(cases.CASES)
    assert sorted(CLI_GOLDEN) == sorted(cases.CLI_CASES)
    assert sorted(SLOW_CLI_GOLDEN) == sorted(cases.SLOW_CLI_CASES)


@pytest.mark.parametrize("name", sorted(cases.CASES))
def test_check_report_matches_golden(name):
    report = check_three_cosymplectic(cases.CASES[name]())
    assert report.to_dict() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(cases.CLI_CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert cases.run_cli(cases.CLI_CASES[name], tmp_path) == CLI_GOLDEN[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(cases.SLOW_CLI_CASES))
def test_slow_cli_output_matches_golden(name, tmp_path):
    assert cases.run_cli(cases.SLOW_CLI_CASES[name], tmp_path) == SLOW_CLI_GOLDEN[name]


def test_gl7_case_has_off_diagonal_e1():
    # The pullback case exists to exercise operators that are not diagonal in
    # the monomial basis; make sure it still does.
    space, t = cases.gl7_torus7()
    block = small_operators(space, t)["e1"].block(1)
    assert any(x for i, row in enumerate(block) for j, x in enumerate(row) if i != j)
