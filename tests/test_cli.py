import json

import pytest

from cosym3 import AlmostContactMetricStructure, KForm, ThreeStructure, flat_torus, m7f
from cosym3.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERDICT_FAIL,
    StructureFileError,
    main,
    parse_structure_file,
    structure_file_dict,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_builtins(capsys):
    for name in ("standard7", "torus7", "m7f"):
        code, out, err = run(capsys, "check", "--builtin", name)
        assert code == EXIT_OK, err
        report = json.loads(out)
        assert report["verdict"] == "3-cosymplectic"
        assert report["counts"]["failures"] == 0
        assert report["versions"]["cosym3"]


def test_check_reports_monodromy_items_only_for_mapping_torus(capsys):
    code, out, _ = run(capsys, "check", "--builtin", "m7f")
    names = [v["name"] for v in json.loads(out)["verdicts"]]
    assert "monodromy_fixes_metric" in names
    code, out, _ = run(capsys, "check", "--builtin", "torus7")
    names = [v["name"] for v in json.loads(out)["verdicts"]]
    assert "monodromy_fixes_metric" not in names


def test_check_broken_file(tmp_path, capsys):
    space, t = flat_torus(1)
    s3 = t.structure(3)
    broken = ThreeStructure(
        [
            t.structure(1),
            t.structure(2),
            AlmostContactMetricStructure(-s3.phi, s3.xi, s3.eta, s3.g),
        ]
    )
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(structure_file_dict(space, broken)))
    code, out, err = run(capsys, "check", "--input", str(path))
    assert code == EXIT_VERDICT_FAIL
    report = json.loads(out)
    failing = [v["name"] for v in report["verdicts"] if not v["passed"]]
    assert any(name.startswith("quaternionic") for name in failing)


def test_parse_round_trip(tmp_path):
    for name in ("torus7", "m7f"):
        from cosym3.models import builtin

        space, t = builtin(name)
        blob = structure_file_dict(space, t)
        text = json.dumps(blob, indent=2)
        space2, t2 = parse_structure_file(json.loads(text))
        assert structure_file_dict(space2, t2) == blob


def test_parse_rejects_malformed():
    with pytest.raises(StructureFileError):
        parse_structure_file({"dim": 7})
    with pytest.raises(StructureFileError):
        parse_structure_file([1, 2, 3])
    space, t = flat_torus(1)
    blob = structure_file_dict(space, t)
    bad = json.loads(json.dumps(blob))
    bad["coordinates"] = ["x"] * 7
    with pytest.raises(StructureFileError):
        parse_structure_file(bad)
    bad = json.loads(json.dumps(blob))
    bad["structures"] = bad["structures"][:2]
    with pytest.raises(StructureFileError):
        parse_structure_file(bad)
    # Polynomial tensor on a compact topology is rejected.
    bad = json.loads(json.dumps(blob))
    bad["structures"][0]["xi"][0] = [{"c": "1", "e": [1, 0, 0, 0, 0, 0, 0]}]
    with pytest.raises(StructureFileError):
        parse_structure_file(bad)


def test_betti_reports(capsys):
    code, out, _ = run(capsys, "betti", "--builtin", "torus7")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["tables"]["b"] == [1, 7, 21, 35, 35, 21, 7, 1]
    code, out, _ = run(capsys, "betti", "--builtin", "m7f")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["tables"]["b"] == [1, 3, 7, 13, 13, 7, 3, 1]
    assert report["tables"]["bh"] == [1, 0, 4, 0, 1, 0, 0, 0]
    assert any("b2 = 7 < 21" in note for note in report["notes"])


def test_betti_non_compact(capsys):
    code, out, err = run(capsys, "betti", "--builtin", "standard7")
    assert code == EXIT_USAGE
    assert "compact" in err


def test_betti_inconsistent_model_exits_with_verdict_failure(tmp_path, capsys):
    # Doubling eta_1 breaks the projector identity e1^2 = e1, which betti
    # classifies as a model inconsistency (exit 1, not a usage error).
    space, t = flat_torus(1)
    s1 = t.structure(1)
    broken = ThreeStructure(
        [
            AlmostContactMetricStructure(s1.phi, s1.xi, s1.eta.scaled(2), s1.g),
            t.structure(2),
            t.structure(3),
        ]
    )
    path = tmp_path / "inconsistent.json"
    path.write_text(json.dumps(structure_file_dict(space, broken)))
    code, out, err = run(capsys, "betti", "--input", str(path))
    assert code == EXIT_VERDICT_FAIL
    assert "inconsistency" in err


def _inconsistent_betti(tmp_path, capsys, space, t):
    path = tmp_path / "inconsistent.json"
    path.write_text(json.dumps(structure_file_dict(space, t)))
    code, out, err = run(capsys, "betti", "--input", str(path))
    assert code == EXIT_VERDICT_FAIL
    assert out == ""
    return err


def test_betti_doubled_xi_is_not_idempotent(tmp_path, capsys):
    space, t = flat_torus(1)
    s1 = t.structure(1)
    broken = ThreeStructure(
        [
            AlmostContactMetricStructure(s1.phi, s1.xi.scaled(2), s1.eta, s1.g),
            t.structure(2),
            t.structure(3),
        ]
    )
    err = _inconsistent_betti(tmp_path, capsys, space, broken)
    assert err == "cosym3: model inconsistency: e1 is not idempotent on degree 1\n"


def test_betti_eta_off_invariant_forms_leaves_harmonic_space(tmp_path, capsys):
    # eta_1 + dx1 on m7f: dx1 is not fixed by the monodromy, so l1 maps the
    # constant function out of the harmonic 1-forms.
    space, t = m7f()
    s1 = t.structure(1)
    eta = s1.eta + KForm.coordinate(7, 0)
    broken = ThreeStructure(
        [
            AlmostContactMetricStructure(s1.phi, s1.xi, eta, s1.g),
            t.structure(2),
            t.structure(3),
        ]
    )
    err = _inconsistent_betti(tmp_path, capsys, space, broken)
    assert err == (
        "cosym3: model inconsistency: l1 does not preserve harmonic forms at degree 0\n"
    )


def test_liealg_report(capsys):
    code, out, _ = run(capsys, "liealg", "--builtin", "torus7")
    assert code == EXIT_OK
    report = json.loads(out)
    res = report["results"]
    assert res["span_dim"] == 10
    assert res["signature"] == {"positive": 4, "negative": 6, "zero": 0}
    assert res["L_Lambda_commutator"] == "-H"
    names = res["generators"]
    i, j = names.index("L1"), names.index("Lam1")
    assert report["tables"]["bracket"][i][j] == "-H"
    code, out, err = run(capsys, "liealg", "--builtin", "torus3")
    assert code == EXIT_USAGE
    code, out, err = run(capsys, "liealg", "--builtin", "standard7")
    assert code == EXIT_USAGE


def test_deform_flow(tmp_path, capsys):
    out_path = tmp_path / "deformed.json"
    code, out, _ = run(
        capsys, "deform", "--builtin", "torus7", "--a", "2", "--output", str(out_path)
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["passed"] and not report["identity_deformation"]
    code, out, err = run(capsys, "check", "--input", str(out_path))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "deform", "--builtin", "torus7", "--a", "1")
    report = json.loads(out)
    assert report["identity_deformation"]
    with pytest.raises(SystemExit) as exc:
        main(["deform", "--builtin", "torus7", "--a", "-1"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["deform", "--builtin", "torus7", "--a", "0"])
    assert exc.value.code == EXIT_USAGE


def test_deform_identity_output_round_trips(tmp_path, capsys):
    out_path = tmp_path / "same.json"
    code, out, _ = run(
        capsys, "deform", "--builtin", "torus7", "--a", "1", "--output", str(out_path)
    )
    assert code == EXIT_OK
    space, t = flat_torus(1)
    assert json.loads(out_path.read_text()) == structure_file_dict(space, t)


def test_reports_are_byte_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "betti", "--builtin", "m7f")
        assert code == EXIT_OK
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "liealg", "--builtin", "m7f")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--builtin", "torus7"])
    assert exc.value.code == EXIT_USAGE
    code, _, err = run(capsys, "check", "--builtin", "nonsense")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "check", "--input", "/nonexistent/path.json")
    assert code == EXIT_USAGE


def test_order_bound_env(capsys, monkeypatch):
    monkeypatch.setenv("COSYM3_ORDER_BOUND", "2")
    code, _, err = run(capsys, "check", "--builtin", "m7f")
    assert code == EXIT_USAGE
    assert "order" in err
    monkeypatch.setenv("COSYM3_ORDER_BOUND", "potato")
    code, _, err = run(capsys, "check", "--builtin", "torus7")
    assert code == EXIT_USAGE
    monkeypatch.delenv("COSYM3_ORDER_BOUND")
    code, _, _ = run(capsys, "check", "--builtin", "m7f")
    assert code == EXIT_OK


def test_pretty_output(capsys):
    code, out, _ = run(capsys, "betti", "--builtin", "m7f", "--pretty")
    assert code == EXIT_OK
    assert "b:  1 3 7 13 13 7 3 1" in out
    code, out, _ = run(capsys, "liealg", "--builtin", "torus7", "--pretty")
    assert "signature" in out and "-H" in out


def test_report_written_to_output_path(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", "--builtin", "torus7", "--output", str(path))
    assert code == EXIT_OK
    assert out == ""
    report = json.loads(path.read_text())
    assert report["command"] == "check"
