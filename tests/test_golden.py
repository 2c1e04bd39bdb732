import json

import pytest

from cosym3 import check_three_cosymplectic

import cases

GOLDEN = json.loads(cases.GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(cases.CASES)


@pytest.mark.parametrize("name", sorted(cases.CASES))
def test_check_report_matches_golden(name):
    report = check_three_cosymplectic(cases.CASES[name]())
    assert report.to_dict() == GOLDEN[name]
