import argparse
import json
import random
import sys
import threading
import time

import pytest

from cosym3 import (
    AlmostContactMetricStructure,
    KForm,
    ThreeStructure,
    VectorField,
    flat_torus,
    m7f,
)
from cosym3 import cli
from cosym3.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERDICT_FAIL,
    StructureFileError,
    main,
    parse_structure_file,
    structure_file_dict,
)
from cosym3.models import builtin, builtin_names


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


@pytest.mark.parametrize(
    "name", ["torus07", "torus\u0667", "torus7\n"], ids=["leading-zero", "arabic-indic-seven", "trailing-newline"]
)
def test_builtin_names_match_exactly(capsys, name):
    code, out, err = run(capsys, "check", "--builtin", name)
    assert (code, out) == (EXIT_USAGE, "")
    assert f"unknown builtin {name!r}" in err


def test_every_listed_builtin_loads():
    dims = {"standard3": 3, "standard7": 7, "standard11": 11, "torus3": 3, "torus7": 7, "torus11": 11, "m7f": 7}
    assert builtin_names() == list(dims)
    assert {name: builtin(name)[0].chart_dim for name in dims} == dims


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


def test_noncommuting_e_is_a_model_inconsistency(tmp_path, capsys):
    # xi_1 = d/dt1 + d/dt2 on torus7: every e_alpha is idempotent, but e1 and
    # e2 fail to commute on the 1-forms.
    space, t = flat_torus(1)
    s1 = t.structure(1)
    xi = s1.xi + VectorField.coordinate(7, 5)
    broken = ThreeStructure(
        [
            AlmostContactMetricStructure(s1.phi, xi, s1.eta, s1.g),
            t.structure(2),
            t.structure(3),
        ]
    )
    path = tmp_path / "noncommuting.json"
    path.write_text(json.dumps(structure_file_dict(space, broken)))
    for command in ("betti", "liealg"):
        assert run(capsys, command, "--input", str(path)) == (
            EXIT_VERDICT_FAIL,
            "",
            "cosym3: model inconsistency: e1 and e2 do not commute on degree 1\n",
        )


def test_duplicated_structure_is_a_model_inconsistency(tmp_path, capsys):
    # torus7 with structure 2's (eta, xi) replaced by structure 1's: e1 = e2
    # are commuting idempotents, but eta_beta(xi_alpha) is not delta_alpha_beta.
    space, t = flat_torus(1)
    s1, s2, s3 = t.structures
    dup = ThreeStructure([s1, AlmostContactMetricStructure(s2.phi, s1.xi, s1.eta, s2.g), s3])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(structure_file_dict(space, dup)))
    for command in ("betti", "liealg"):
        assert run(capsys, command, "--input", str(path)) == (
            EXIT_VERDICT_FAIL,
            "",
            "cosym3: model inconsistency: eta2(xi1) = 1, expected 0\n",
        )


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


@pytest.mark.parametrize("argv, last_line", [
    (["check"], "cosym3 check: error: one of the arguments --builtin --input is required"),
    (["frobnicate", "--builtin", "torus7"],
     "cosym3: error: argument command: invalid choice: 'frobnicate'"
     " (choose from 'check', 'betti', 'deform', 'liealg')"),
    (["deform", "--builtin", "torus7"],
     "cosym3 deform: error: the following arguments are required: --a"),
    (["check", "--builtin", "torus7", "--input", "x.json"],
     "cosym3 check: error: argument --input: not allowed with argument --builtin"),
    (["deform", "--builtin", "torus7", "--a", "0"],
     "cosym3 deform: error: argument --a: deformation parameter must be positive"),
])
def test_usage_error_messages(capsys, argv, last_line):
    # Only the last line: the usage lines above it wrap with the terminal
    # width and differ between Python versions.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == last_line


def test_exponent_notation_deformation_parameter_is_a_usage_error(capsys):
    # Fraction("1e1000000") would expand a million digits; --a takes p/q only.
    with pytest.raises(SystemExit) as exc:
        main(["deform", "--builtin", "torus7", "--a", "1e1000000"])
    assert exc.value.code == EXIT_USAGE
    assert "argument --a: not a rational: '1e1000000'" in capsys.readouterr().err


def test_each_command_decides_the_monodromy_order_once(tmp_path, capsys, monkeypatch):
    # Topology.of searches for the order; every later layer reads it.
    from cosym3 import linalg

    model = tmp_path / "m7f.json"
    model.write_text(json.dumps(structure_file_dict(*builtin("m7f"))))
    original = linalg.matrix_order
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linalg, "matrix_order", counting)
    for source in (["--builtin", "m7f"], ["--input", str(model)]):
        for command in (["check"], ["betti"], ["liealg"], ["deform", "--a", "2"]):
            calls.clear()
            code, _, err = run(capsys, command[0], *source, *command[1:])
            assert code == EXIT_OK, err
            assert len(calls) == 1, (command, source)
    # Past the bound the one search is the one error, for a builtin as for a file.
    monkeypatch.setenv("COSYM3_ORDER_BOUND", "3")
    for source in (["--builtin", "m7f"], ["--input", str(model)]):
        assert run(capsys, "check", *source) == (
            EXIT_USAGE, "", "cosym3: error: monodromy not finite order within bound 3\n"
        )


def test_order_bound_env(capsys, monkeypatch):
    monkeypatch.setenv("COSYM3_ORDER_BOUND", "2")
    code, _, err = run(capsys, "check", "--builtin", "m7f")
    assert code == EXIT_USAGE
    assert "order" in err
    monkeypatch.setenv("COSYM3_ORDER_BOUND", "potato")
    code, _, err = run(capsys, "check", "--builtin", "torus7")
    assert code == EXIT_USAGE
    # An integer below 1 is refused like a non-integer.
    for bound in ("0", "-3"):
        monkeypatch.setenv("COSYM3_ORDER_BOUND", bound)
        assert run(capsys, "check", "--builtin", "torus7") == (
            EXIT_USAGE, "", f"cosym3: invalid COSYM3_ORDER_BOUND '{bound}'\n"
        )
    monkeypatch.delenv("COSYM3_ORDER_BOUND")
    code, _, _ = run(capsys, "check", "--builtin", "m7f")
    assert code == EXIT_OK


def test_one_parser_per_process(capsys, monkeypatch):
    # main builds its argparse tree on the first call and reuses it, so the
    # calls after the first construct no parser, a usage error included.
    original = argparse.ArgumentParser.__init__
    built = [0]

    def counting(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    calls = [
        ["check", "--builtin", "torus7"],
        ["betti", "--builtin", "torus7"],
        ["check"],
        ["check", "--builtin", "torus7"],
        ["liealg", "--builtin", "torus7"],
    ]
    per_call, outs = [], []
    for argv in calls:
        built[0] = 0
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        per_call.append(built[0])
        outs.append((code, capsys.readouterr().out))
    assert per_call[1:] == [0, 0, 0, 0]
    assert outs[2] == (EXIT_USAGE, "")
    assert outs[3] == outs[0] and outs[0][0] == EXIT_OK


def test_threads_share_the_entry_point(tmp_path):
    # The parser is shared by every call of main; two threads running the
    # same commands at once must write what one thread writes alone.
    commands = [
        [command, "--builtin", name]
        for name in ("torus7", "m7f")
        for command in ("check", "betti", "liealg")
    ]

    def run_all(tag, repeats):
        results = []
        for r in range(repeats):
            for i, argv in enumerate(commands):
                path = tmp_path / f"{tag}-{r}-{i}.json"
                code = main(argv + ["--output", str(path)])
                results.append((code, path.read_bytes()))
        return results

    serial = run_all("serial", 1)
    repeats = 3
    barrier = threading.Barrier(2, timeout=60)
    results = {}

    def worker(tag):
        barrier.wait()
        results[tag] = run_all(tag, repeats)

    threads = [threading.Thread(target=worker, args=(tag,)) for tag in ("a", "b")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside parsing too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [code for code, _ in serial] == [EXIT_OK] * len(commands)
    for tag in ("a", "b"):
        assert results[tag] == serial * repeats


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


@pytest.mark.parametrize(
    "diagonal, code, err",
    [
        # liealg needs only G^-1, so det(g) = 2^7 is no obstacle: 2 * I is
        # just not the metric of torus7's structures, and L1 says so.
        (
            [2] * 7,
            EXIT_VERDICT_FAIL,
            "cosym3: model inconsistency: "
            "L1 does not preserve the basic harmonic forms at degree 0\n",
        ),
        (
            [-1] + [1] * 6,
            EXIT_USAGE,
            "cosym3: error: metric is degenerate or not positive definite\n",
        ),
        (
            [4] + [1] * 6,
            EXIT_USAGE,
            "cosym3: error: fundamental form not antisymmetric at entry (1,2)\n",
        ),
        (
            [4] * 7,
            EXIT_VERDICT_FAIL,
            "cosym3: model inconsistency: "
            "L1 does not preserve the basic harmonic forms at degree 0\n",
        ),
    ],
    ids=["det-not-square", "not-positive", "phi-not-antisymmetric", "l-leaves-basic"],
)
def test_liealg_incompatible_metric(tmp_path, capsys, diagonal, code, err):
    # torus7 with its metric replaced by a constant diagonal one.
    data = structure_file_dict(*flat_torus(1))
    data["metric"] = [
        [[{"c": str(diagonal[i]), "e": [0] * 7}] if i == j else [] for j in range(7)]
        for i in range(7)
    ]
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "liealg", "--input", str(path)) == (code, "", err)



@pytest.mark.parametrize(
    "name, path, value, err",
    [
        ("standard7", ("metric", 0, 0, 0, "c"), 0.1, "coefficient 0.1 must be a string 'p/q'"),
        ("standard7", ("metric", 0, 0, 0, "c"), True, "coefficient True must be a string 'p/q'"),
        ("standard7", ("metric", 0, 0, 0, "e", 0), False, "bad exponent vector [False, 0,"),
        ("standard7", ("dim",), True, "dim must be a positive integer"),
        (
            "torus3",
            ("topology",),
            {"type": "mapping_torus", "fiber_dim": False, "monodromy": []},
            "mapping_torus needs fiber_dim = dim - 3",
        ),
        ("m7f", ("topology", "monodromy", 1, 0), True, "monodromy must be an integer fiber_dim matrix"),
        # Neither may a non-list exponent vector or an unhashable coordinate
        # name crash the parser before its checks.
        ("standard7", ("metric", 0, 0, 0, "e"), 5, "bad exponent vector 5\n"),
        ("standard7", ("metric", 0, 0, 0, "e"), None, "bad exponent vector None\n"),
        ("standard7", ("coordinates", 0), ["x", "y"], "coordinates must be dim distinct names\n"),
        # Rationals are "p/q" strings: Fraction's decimals and exponents are
        # refused, "1e50000" before its digits overflow the report writer.
        ("m7f", ("metric", 0, 0, 0, "c"), "1e50000", "bad coefficient '1e50000'\n"),
        ("m7f", ("metric", 0, 0, 0, "c"), "1e100000000", "bad coefficient '1e100000000'\n"),
        ("standard7", ("metric", 0, 0, 0, "c"), "0.5", "bad coefficient '0.5'\n"),
        ("standard7", ("metric", 0, 0, 0, "c"), "\u0661", "bad coefficient '\u0661'\n"),
        ("standard7", ("metric", 0, 0, 0, "c"), " 1", "bad coefficient ' 1'\n"),
    ],
    ids=["float-coefficient", "bool-coefficient", "bool-exponent", "bool-dim",
         "bool-fiber-dim", "bool-monodromy-entry", "int-exponent-vector",
         "null-exponent-vector", "list-coordinate", "exponent-coefficient",
         "huge-exponent-coefficient", "decimal-coefficient", "non-ascii-digit",
         "padded-coefficient"],
)
def test_structure_file_rejects_floats_and_booleans(tmp_path, capsys, name, path, value, err):
    # Each edit is accepted at face value unless floats and booleans are told
    # apart from JSON strings and integers.
    data = structure_file_dict(*builtin(name))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    model = tmp_path / "model.json"
    model.write_text(json.dumps(data))
    code, out, stderr = run(capsys, "check", "--input", str(model))
    assert (code, out) == (EXIT_USAGE, "")
    assert stderr.startswith(f"cosym3: error: {err}")


def test_non_unimodular_monodromy_is_not_of_finite_order(tmp_path, capsys):
    # An integer A with A^r = I has det(A) = +-1, so the order search is what
    # rejects a non-unimodular monodromy such as 2 I.
    data = structure_file_dict(*builtin("m7f"))
    data["topology"]["monodromy"] = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(data))
    assert run(capsys, "check", "--input", str(model)) == (
        EXIT_USAGE, "", "cosym3: error: monodromy not finite order within bound 60\n"
    )


@pytest.mark.parametrize("name", ["torus7", "m7f"], ids=["torus", "mapping_torus"])
def test_compact_topology_rejects_a_polynomial_metric_entry(tmp_path, capsys, name):
    # One diagonal metric entry becomes 1 + x2, so the metric stays symmetric.
    data = structure_file_dict(*builtin(name))
    assert data["topology"]["type"] == ("torus" if name == "torus7" else "mapping_torus")
    data["metric"][0][0] = [{"c": "1", "e": [0] * 7}, {"c": "1", "e": [0, 1] + [0] * 5}]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(data))
    code, out, stderr = run(capsys, "check", "--input", str(model))
    assert (code, out) == (EXIT_USAGE, "")
    assert stderr.startswith("cosym3: error: torus and mapping_torus models require")
    assert "(polynomials are not periodic)" in stderr


@pytest.mark.parametrize(
    "content, err",
    [
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"[" * 200_000, "nesting too deep"),
        # Past the int-string digit limit, whose wording varies by version.
        (b'{"dim": ' + b"1" * 5000 + b"}", None),
    ],
    ids=["not-utf8", "deep-nesting", "oversized-integer"],
)
def test_structure_file_rejects_undecodable_text(tmp_path, capsys, content, err):
    # Undecodable bytes, nesting past the recursion limit and integers past
    # the digit limit are malformed input too, not a traceback with the
    # verdict-failed code.
    model = tmp_path / "model.json"
    model.write_bytes(content)
    code, out, stderr = run(capsys, "check", "--input", str(model))
    assert (code, out) == (EXIT_USAGE, "")
    prefix = f"cosym3: error: invalid JSON in {model}: "
    if err is None:
        assert stderr.startswith(prefix) and stderr.count("\n") == 1
    else:
        assert stderr == f"{prefix}{err}\n"


@pytest.mark.parametrize(
    "argv",
    [["check", "--builtin", "torus7"], ["deform", "--builtin", "torus7", "--a", "7/3"]],
    ids=["report", "deformed-structure"],
)
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    # check writes its report to --output, deform the deformed structure file.
    path = tmp_path / "missing" / "x.json"
    code, out, stderr = run(capsys, *argv, "--output", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert stderr == f"cosym3: error: cannot write {path}: [Errno 2] No such file or directory: '{path}'\n"
    assert not path.parent.exists()


@pytest.mark.parametrize("command", ["betti", "liealg"])
@pytest.mark.parametrize("dim", [1, 2, 4, 6, 8])
def test_chart_dimension_not_4n_plus_3_is_a_usage_error(tmp_path, capsys, command, dim):
    # A flat torus file with eta_alpha = dx_(dim-3+alpha), xi_alpha its dual
    # vector, phi_alpha = 0 and g = I: no 3-structure exists in this dimension,
    # and betti and liealg say so as check does.  Below dimension 3 the torus
    # has no fiber for its identity monodromy to act on.
    def const(i):
        return [[{"c": "1", "e": [0] * dim}] if j == i else [] for j in range(dim)]

    data = {
        "dim": dim,
        "coordinates": [f"x{i + 1}" for i in range(dim)],
        "metric": [const(i) for i in range(dim)],
        "topology": {"type": "torus"},
        "structures": [
            {"xi": const(dim - 4 + alpha), "eta": const(dim - 4 + alpha),
             "phi": [[[] for _ in range(dim)] for _ in range(dim)]}
            for alpha in (1, 2, 3)
        ],
    }
    path = tmp_path / f"torus{dim}.json"
    path.write_text(json.dumps(data))
    err = f"cosym3: error: chart dimension {dim} is not of the form 4n+3; no 3-structure exists\n"
    for cmd in ("check", command):
        assert run(capsys, cmd, "--input", str(path)) == (EXIT_USAGE, "", err)


_TORUS7_TERM = {"c": "1", "e": [0] * 7}


@pytest.mark.parametrize(
    "path, value, err",
    [
        (("metric", 0, 0), "1", "polynomial must be a list of terms"),
        (("metric", 0, 0), [{"c": "1"}], "polynomial term must have 'c' and 'e'"),
        (("metric", 0, 0), [_TORUS7_TERM, _TORUS7_TERM], "duplicate exponent vector [0, 0, 0, 0, 0, 0, 0]"),
        (("metric",), [], "metric must be a 7x7 matrix"),
        (("metric", 6), [[]], "metric must be a list of 7 polynomials"),
        (("structures", 0, "xi"), [], "structure 1: xi must be a list of 7 polynomials"),
        (("structures", 1, "eta"), [[]] * 8, "structure 2: eta must be a list of 7 polynomials"),
        (("structures", 2, "phi"), [[]], "structure 3: phi must be a 7x7 matrix"),
        (("structures", 1), [], "structure 2 must be an object"),
        (("topology",), "torus", "topology must be an object with a 'type'"),
        (("topology",), {}, "topology must be an object with a 'type'"),
        (("topology", "type"), "klein", "unknown topology type 'klein'"),
    ],
    ids=["polynomial-not-a-list", "term-without-e", "duplicate-exponent", "metric-rows",
         "metric-row-length", "xi-length", "eta-length", "phi-size", "structure-not-an-object",
         "topology-not-an-object", "topology-without-type", "unknown-topology"],
)
def test_structure_file_rejects_malformed_shapes(tmp_path, capsys, path, value, err):
    data = structure_file_dict(*builtin("torus7"))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    model = tmp_path / "model.json"
    model.write_text(json.dumps(data))
    assert run(capsys, "check", "--input", str(model)) == (EXIT_USAGE, "", f"cosym3: error: {err}\n")


@pytest.mark.parametrize("command", ["betti", "liealg"])
def test_chart_dimension_above_the_limit_is_refused_at_once(tmp_path, capsys, command):
    # The flat torus of dimension 23 has 2^23 constant forms: betti and
    # liealg refuse it before building any, instead of running out of memory.
    path = tmp_path / "torus23.json"
    path.write_text(json.dumps(structure_file_dict(*flat_torus(5))))
    start = time.perf_counter()
    result = run(capsys, command, "--input", str(path))
    assert time.perf_counter() - start < 1
    err = "cosym3: error: chart dimension 23 is above 19, the largest whose cohomology is computed\n"
    assert result == (EXIT_USAGE, "", err)


def test_oversized_monodromy_is_refused_at_once(tmp_path, capsys):
    # Dense monodromies with 4000-digit entries on m7f and on the torus of
    # dimension 19: the trace of the first power is past the fiber dimension,
    # so the order search stops there instead of multiplying up to 60 powers
    # of ever longer entries.
    from cosym3 import linalg

    rng = random.Random(4000)
    err = "cosym3: error: monodromy not finite order within bound 60\n"
    for space, t in (m7f(), flat_torus(4)):
        d = space.chart_dim - 3
        mono = [[rng.choice((1, -1)) * rng.randrange(10**3999, 10**4000) for _ in range(d)] for _ in range(d)]
        assert linalg.matrix_order(mono, 60) is None
        data = structure_file_dict(space, t)
        data["topology"] = {"type": "mapping_torus", "fiber_dim": d, "monodromy": mono}
        path = tmp_path / f"oversized{space.chart_dim}.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        result = run(capsys, "check", "--input", str(path))
        assert time.perf_counter() - start < 1
        assert result == (EXIT_USAGE, "", err)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_number_too_long_to_print_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # Python refuses str() of an int longer than its digit limit.  The report
    # writer meets one in a(a - 1) for a 3000-digit a, and in the witness of a
    # check with a 4000-digit phi entry.
    data = structure_file_dict(*builtin("torus7"))
    data["structures"][0]["phi"][0][0] = [{"c": "9" * 4000, "e": [0] * 7}]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(data))
    err = f"cosym3: error: a number in the result is too long to print (over {sys.get_int_max_str_digits()} digits)\n"
    for argv in (["deform", "--builtin", "torus7", "--a", "7" * 3000 + "/3"], ["check", "--input", str(model)]):
        assert run(capsys, *argv) == (EXIT_USAGE, "", err)
    # Any other ValueError is a defect and keeps its traceback.
    monkeypatch.setattr(cli, "build_check_report", lambda *args: int("x"))
    with pytest.raises(ValueError, match="invalid literal"):
        main(["check", "--builtin", "torus7"])
