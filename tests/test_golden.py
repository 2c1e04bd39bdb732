import json
import re

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


def test_metric11_witnesses_lie_past_row_and_column_4():
    # The other goldens' matrix witnesses all lie within (1,1)-(3,3); this
    # case pins the row-major scan order of witnesses further in.
    items = {item["name"]: item for item in GOLDEN["polynomial_metric11"]["items"]}
    for name in (
        "almost_contact[1].phi_squared",
        "compatible[1]",
        "fundamental_form_antisymmetric[1]",
        "quaternionic[312].phi_c_eq_minus_phi_b_phi_a",
    ):
        row, col = map(int, re.search(r"entry \((\d+),(\d+)\)", items[name]["witness"]).groups())
        assert row > 4 and col > 4, name
    assert "entry (5, 8)" in CLI_GOLDEN["check asymmetric11"]["stderr"]
