import dataclasses
import math
import random

import pytest

from cosym3 import (
    EndField,
    KForm,
    ModelSpace,
    Topology,
    betti_checks,
    decompose,
    harmonic_space,
    interior_product,
    invariant_forms,
    is_basic,
    mapping_torus,
    quaternion_module,
    quaternion_right_mult,
    small_operators,
    verify_ladder,
    wedge,
)
from cosym3.cohomology import EPS_ORDER, CohomologyError, HarmonicTable, NonCompactError
from cosym3.exterior import form_vector, monomial_keys, vector_form
from cosym3.models import hyper_kahler_blocks
from cosym3 import linalg
from cosym3.poly import Poly

import cases
import oracles
import randgen


def kernel_dim_oracle(a: EndField, q: int) -> int:
    """Independent route: dim ker(A* - I) on constant q-forms."""
    mat = oracles.pullback_matrix(a.to_fractions(), q)
    n = len(mat)
    diff = [[mat[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    return len(oracles.kernel_basis(diff))


def test_invariant_forms_identity():
    ident = EndField.identity(4)
    for q in range(5):
        basis = invariant_forms(ident, q, 1)
        assert len(basis) == math.comb(4, q)


def test_invariant_forms_right_mult_i():
    r_i = quaternion_right_mult("i")
    dims = [len(invariant_forms(r_i, q, 4)) for q in range(5)]
    assert dims == [1, 0, 4, 0, 1]
    for q in range(5):
        assert dims[q] == kernel_dim_oracle(r_i, q)
    # The invariant 2-forms span {dx12, dx34, dx13 - dx24, dx14 + dx23}.
    basis = invariant_forms(r_i, 2, 4)
    keys = monomial_keys(4, 2)
    got = [[f.get(key, 0) for key in keys] for f in basis]
    expected_forms = [
        KForm(4, 2, {(0, 1): 1}),
        KForm(4, 2, {(2, 3): 1}),
        KForm(4, 2, {(0, 2): 1, (1, 3): -1}),
        KForm(4, 2, {(0, 3): 1, (1, 2): 1}),
    ]
    expected = [[form_vector(f).get(key, 0) for key in keys] for f in expected_forms]
    assert oracles.rref(got) == oracles.rref(expected)


def test_invariant_forms_random_matrices_trace_cross_check():
    rng = random.Random(31)
    for _ in range(40):
        a = randgen.finite_order_matrix(rng)
        q = rng.randint(0, a.m)
        basis = invariant_forms(a, q, oracles.matrix_power_order(a.to_fractions()))
        assert len(basis) == kernel_dim_oracle(a, q)


def block_swap11(u: str, v: str):
    """The dim-11 mapping torus of the block swap [[0, R_u], [R_v, 0]]."""
    upper = quaternion_right_mult(u).to_fractions()
    lower = quaternion_right_mult(v).to_fractions()
    zero = [0] * 4
    mono = [zero + row for row in upper] + [row + zero for row in lower]
    return mapping_torus(hyper_kahler_blocks(2), EndField.from_fractions(mono))


def assert_matches_per_monomial_route(space, t):
    a = space.topology.monodromy
    d, m = a.m, space.chart_dim
    order = oracles.matrix_power_order(a.to_fractions())
    fibers = {q: oracles.invariant_forms_per_monomial(a, q, order) for q in range(d + 1)}
    for q in range(d + 1):
        assert invariant_forms(a, q, order) == fibers[q], q
    for k in range(m + 1):
        assert harmonic_space(space, t, k) == oracles.harmonic_by_wedges(fibers, d, k), k


def test_invariant_and_harmonic_bases_match_per_monomial_route_on_random_monodromies(torus7):
    # Conjugated by unimodular matrices, so most monomial images have many
    # terms.  harmonic_space reads only the topology of the space and the
    # constant flag of the structure, so one constant structure serves
    # every fiber dimension.
    _, t = torus7
    rng = random.Random(2020)
    for _ in range(40):
        a = randgen.finite_order_matrix(rng)
        d = a.m
        coords = tuple(f"x{i + 1}" for i in range(d)) + ("t1", "t2", "t3")
        space = ModelSpace(d + 3, coords, Topology.of("mapping_torus", a))
        assert_matches_per_monomial_route(space, t)


@pytest.mark.parametrize("u, v", [("-1", "j"), ("i", "1")], ids=["real-first", "imaginary-first"])
def test_invariant_and_harmonic_bases_match_per_monomial_route_on_block_swaps(u, v):
    assert_matches_per_monomial_route(*block_swap11(u, v))


def test_invariant_and_harmonic_bases_match_per_monomial_route_on_m7f(m7f_model):
    assert_matches_per_monomial_route(*m7f_model)


def test_invariant_forms_out_of_range_degree(m7f_model):
    topo = m7f_model[0].topology
    with pytest.raises(ValueError):
        invariant_forms(topo.monodromy, -1, topo.order)
    assert invariant_forms(topo.monodromy, topo.fiber_dim + 1, topo.order) == []


def test_decompose_builds_each_fiber_degree_once(m7f_model, torus7, monkeypatch):
    # One fiber pass per decompose: one pullback memo for all fiber degrees,
    # with the order the topology already holds, and the harmonic bases are
    # read off the invariant forms without wedging or eliminating again.  The
    # torus takes the same pass with f = I.
    from collections import Counter

    from cosym3 import cohomology, decompose

    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counting(linalg, "matrix_order")
    counting(cohomology, "monomial_images")
    table = decompose(*m7f_model)
    assert table.b == (1, 3, 7, 13, 13, 7, 3, 1)
    assert calls == Counter(monomial_images=1)
    calls.clear()
    assert decompose(*torus7).b == (1, 7, 21, 35, 35, 21, 7, 1)
    assert calls == Counter(monomial_images=1)

    space, t = m7f_model
    fibers = dict(enumerate(cohomology.fiber_invariants(space.topology.monodromy, space.topology.order)))
    counting(cohomology, "wedge_images")
    counting(linalg, "sparse_rref")
    bases = [harmonic_space(space, t, k, fibers) for k in range(8)]
    assert [len(basis) for basis in bases] == list(table.b)
    assert calls["wedge_images"] == calls["sparse_rref"] == 0


def test_trace_cross_check_names_the_fiber_degree(m7f_model):
    # A wrong order (3 for the order-4 monodromy R_i) breaks P a* = P; the
    # projector trace first disagrees with the fixed dimension at degree 1.
    space, t = m7f_model
    wrong = dataclasses.replace(space, topology=dataclasses.replace(space.topology, order=3))
    with pytest.raises(CohomologyError, match=r"^projector trace 2/3 disagrees .* at fiber degree 1$"):
        decompose(wrong, t)


def test_harmonic_space_dimensions(torus7, m7f_model, standard7):
    space, t = torus7
    assert len(harmonic_space(space, t, 1)) == 7
    assert len(harmonic_space(space, t, 3)) == 35
    space, t = m7f_model
    basis1 = harmonic_space(space, t, 1)
    assert len(basis1) == 3
    assert basis1 == [form_vector(KForm.monomial(7, (i,))) for i in (4, 5, 6)]
    assert len(harmonic_space(space, t, 0)) == 1
    space, t = standard7
    with pytest.raises(NonCompactError):
        harmonic_space(space, t, 1)


def test_is_basic(torus7):
    space, t = torus7
    m = 7
    assert is_basic(space, t, KForm.monomial(m, (0,)))
    assert not is_basic(space, t, KForm.monomial(m, (4,)))
    assert not is_basic(space, t, KForm.monomial(m, (0, 5)))
    assert is_basic(space, t, KForm.constant(m, 1))
    # Non-constant form on the euclidean chart: i_xi(d omega) can fail alone.
    poly_form = KForm(m, 1, {(0,): Poly.variable(m, 4)})  # t1 dx1
    assert not is_basic(space, t, poly_form)


def test_small_operators_examples(torus7):
    space, t = torus7
    ops = small_operators(space, t)
    m = 7
    eta1 = t.structure(1).eta
    from cosym3 import interior_product

    # e1(eta1) = eta1, e1(dx1) = 0, e1(Phi1) = 0.
    from cosym3 import fundamental_form

    s1 = t.structure(1)

    def e1(omega):
        if omega.degree == 0:
            return KForm(m, 0)
        return wedge(eta1, interior_product(s1.xi, omega))

    assert e1(eta1) == eta1
    assert e1(KForm.monomial(m, (0,))).is_zero()
    assert e1(fundamental_form(s1)).is_zero()
    # Matrix shapes are consistent with the degree shifts.
    assert ops["l1"].degree_shift == 1
    assert ops["lambda1"].degree_shift == -1
    block = ops["l1"].block(0)
    assert len(block) == 7 and len(block[0]) == 1
    # Every dense block has the shape of its source and target harmonic spaces.
    b = (1, 7, 21, 35, 35, 21, 7, 1)
    for alpha in (1, 2, 3):
        for name, shift, degrees in (("l", 1, range(7)), ("lambda", -1, range(1, 8)), ("e", 0, range(8))):
            blocks = ops[f"{name}{alpha}"].blocks
            assert sorted(blocks) == list(degrees)
            for k, block in blocks.items():
                assert len(block) == b[k + shift] and all(len(row) == b[k] for row in block)


def test_e_blocks_match_eta_wedge_xi_contraction():
    # e_alpha is built as l_alpha(k - 1) . lambda_alpha(k); the reference
    # applies eta_alpha ^ i_xi_alpha to every harmonic basis form and reads
    # the image's coordinates.  The e_alpha are not diagonal on gl7_torus7.
    space, t = cases.gl7_torus7()
    ops = small_operators(space, t)
    bases = [linalg.EchelonBasis(harmonic_space(space, t, k)) for k in range(8)]
    for alpha in (1, 2, 3):
        s = t.structure(alpha)
        e = ops[f"e{alpha}"]
        assert sorted(e.sparse_blocks) == list(range(8))
        for k, basis in enumerate(bases):
            expected = {}
            for j, v in enumerate(basis.vectors):
                image = wedge(s.eta, interior_product(s.xi, vector_form(7, k, v))) if k else KForm(7, 0)
                col = basis.coordinates(form_vector(image))
                assert col is not None
                expected.update(((i, j), x) for i, x in col.items())
            assert e.sparse_blocks[k] == expected


def test_decompose_tables(torus7_table, m7f_table):
    # Dimensions of the eightfold split at k = 2, plus dimension bookkeeping.
    t7 = torus7_table
    assert t7.b == (1, 7, 21, 35, 35, 21, 7, 1)
    assert t7.bh == (1, 4, 6, 4, 1, 0, 0, 0)
    row = t7.dims_row(2)
    assert row == {
        "000": 6, "100": 4, "010": 4, "001": 4,
        "110": 1, "101": 1, "011": 1, "111": 0,
    }
    mf = m7f_table
    assert mf.b == (1, 3, 7, 13, 13, 7, 3, 1)
    assert mf.bh == (1, 0, 4, 0, 1, 0, 0, 0)
    row = mf.dims_row(2)
    assert row == {
        "000": 4, "100": 0, "010": 0, "001": 0,
        "110": 1, "101": 1, "011": 1, "111": 0,
    }
    for table in (t7, mf):
        row0 = table.dims_row(0)
        assert row0["000"] == 1 and sum(row0.values()) == 1
        for k in range(8):
            assert sum(table.dims_row(k).values()) == table.b[k]


def test_decompose_component_forms_are_basic(torus7, torus7_table):
    space, t = torus7
    for k in range(8):
        for f in torus7_table.component(k, (0, 0, 0)):
            assert is_basic(space, t, f)
        for eps in EPS_ORDER[1:]:
            for f in torus7_table.component(k, eps):
                assert not is_basic(space, t, f) or f.is_zero()


def test_betti_convolution_oracle(m7f_model, m7f_table):
    # b_k = sum_p C(3, p) * dim (Lambda^{k-p})^{f*}, computed independently.
    space, _ = m7f_model
    r_i = space.topology.monodromy
    inv = [kernel_dim_oracle(r_i, q) for q in range(5)]
    assert inv == [1, 0, 4, 0, 1]
    for k in range(8):
        expected = sum(
            math.comb(3, p) * (inv[k - p] if 0 <= k - p <= 4 else 0)
            for p in range(4)
        )
        assert m7f_table.b[k] == expected


def test_verify_ladder(torus7, torus7_table, m7f_model, m7f_table):
    space, t = torus7
    report = verify_ladder(space, t, torus7_table)
    assert report.passed
    assert report.item("ladder[k=1].l1.000->100").passed
    assert len(torus7_table.component(1, (0, 0, 0))) == 4
    assert len(torus7_table.component(2, (1, 0, 0))) == 4
    space, t = m7f_model
    report = verify_ladder(space, t, m7f_table)
    assert report.passed
    assert report.item("ladder[k=0].l2.000->010").passed
    assert len(m7f_table.component(0, (0, 0, 0))) == 1
    assert len(m7f_table.component(1, (0, 1, 0))) == 1


def test_l_squared_zero(torus7):
    space, t = torus7
    eta1 = t.structure(1).eta
    for k in range(6):
        for f in harmonic_space(space, t, k):
            assert wedge(eta1, wedge(eta1, vector_form(7, k, f))).is_zero()


def test_betti_checks(torus7_table, m7f_table):
    for table in (torus7_table, m7f_table):
        report = betti_checks(table)
        assert report.passed, [i.name for i in report.failures()]
    # Spot values: the formula at k = 2 and the bounds on m7f.
    report = betti_checks(m7f_table)
    assert report.item("betti_formula[k=2]").passed
    for k, (bk, bound) in enumerate(((1, 1), (3, 3), (7, 6), (13, 10))):
        item = report.item(f"betti_lower_bound[k={k}]")
        assert item.passed
        assert f"b_{k} = {bk}" in item.witness
    # n = (m - 3) / 4 is read off the table, which must have m = 4n + 3.
    with pytest.raises(ValueError, match="^table dimension 8 is not 4n [+] 3$"):
        betti_checks(HarmonicTable(8, {}, (0,) * 9, (0,) * 9))


def test_quaternion_module(torus7, torus7_table, m7f_model, m7f_table):
    space, t = torus7
    for k in (1, 3):
        report = quaternion_module(space, t, k, torus7_table)
        assert report.passed, [i.name for i in report.failures()]
        assert len(torus7_table.component(k, (0, 0, 0))) == 4
    space, t = m7f_model
    report = quaternion_module(space, t, 1, m7f_table)
    assert report.passed
    assert len(m7f_table.component(1, (0, 0, 0))) == 0
    with pytest.raises(ValueError):
        quaternion_module(space, t, 2, m7f_table)
    # phi is not diagonal in the monomial basis on gl7_torus7.
    space, t = cases.gl7_torus7()
    table = decompose(space, t)
    for k in (1, 3, 5):
        report = quaternion_module(space, t, k, table)
        assert report.passed, [i.name for i in report.failures()]
        assert len(report.items) == 10


def test_component_forms_are_reduced_echelon_joint_eigenforms(
    torus7, torus7_table, m7f_model, m7f_table
):
    # The e_alpha are not diagonal in the monomial basis on gl7_torus7, so a
    # wrong map from coordinates back to forms shows up there.
    gl7 = cases.gl7_torus7()
    for (space, t), table in ((torus7, torus7_table), (m7f_model, m7f_table), (gl7, decompose(*gl7))):
        for k in range(table.m + 1):
            for eps in EPS_ORDER:
                vectors = list(table.span(k, eps).vectors)
                assert linalg.sparse_rref(vectors) == vectors
                for f in table.component(k, eps):
                    for alpha in (1, 2, 3):
                        s = t.structure(alpha)
                        image = wedge(s.eta, interior_product(s.xi, f)) if k else KForm(table.m, 0)
                        assert image == f.scaled(eps[alpha - 1])


def _projector_spans(space, t):
    """``oracles.projector_components`` on the harmonic bases and e_alpha blocks."""
    ops = small_operators(space, t)
    bases = [harmonic_space(space, t, k) for k in range(t.m + 1)]
    return oracles.projector_components(bases, [ops[f"e{alpha}"].sparse_blocks for alpha in (1, 2, 3)])


def _spans(table):
    return {key: list(basis.vectors) for key, basis in table.spans.items()}


def test_spans_match_the_projector_split(torus7, torus7_table, m7f_model, m7f_table):
    # Every component, vector for vector, against the images of the products
    # of the e_alpha projectors, on flat, sheared, deformed and mapping-torus
    # models of dimensions 7 and 11.
    from cosym3 import d_homothetic_deform

    m7f_space, m7f_t = m7f_model
    models = {
        "torus7": (torus7, torus7_table),
        "m7f": (m7f_model, m7f_table),
        "gl7_torus7": (cases.gl7_torus7(), None),
        "sheared11": (cases.sheared11(), None),
        "swap11": (cases.swap11(), None),
        "m7f_D_2/3": ((m7f_space, d_homothetic_deform(m7f_t, "2/3")), None),
    }
    for name, ((space, t), table) in models.items():
        table = table or decompose(space, t)
        assert _spans(table) == _projector_spans(space, t), name


@pytest.mark.slow
def test_sheared_torus15_split():
    # The flat torus15 pulled back by 8 seeded shears: no e_alpha is diagonal
    # in the monomial basis, and b_7 = 6435.
    space, t = cases.sheared_torus(3, 8)
    table = decompose(space, t)
    assert table.b == tuple(math.comb(15, k) for k in range(16))
    assert table.bh == tuple(math.comb(12, k) for k in range(16))
    assert _spans(table) == _projector_spans(space, t)


def test_e_operators_idempotent_on_matrices(torus7, m7f_model):
    for space, t in (torus7, m7f_model):
        ops = small_operators(space, t)
        for k in range(8):
            mats = [ops[f"e{alpha}"].block(k) for alpha in (1, 2, 3)]
            for e in mats:
                assert oracles.dense_mul(e, e) == e
            for a in range(3):
                for b in range(a + 1, 3):
                    assert oracles.dense_mul(mats[a], mats[b]) == oracles.dense_mul(mats[b], mats[a])


def _per_image_blocks(bases, vector, images):
    """The blocks of a degree-shifting operator built one image at a time:
    block k holds the coordinates over bases[k + shift] of the image of
    every degree-k basis vector."""
    blocks = {}
    for k, dst in vector.items():
        col_images = [images(v) for v in bases[k].vectors]
        blocks[k] = {}
        for j, image in enumerate(col_images):
            col = bases[dst].coordinates(image)
            assert col is not None, (k, j)
            blocks[k].update(((i, j), x) for i, x in col.items())
    return blocks


def test_small_operator_blocks_match_per_image_coordinates(torus7, m7f_model):
    # l_alpha and lambda_alpha against a loop that wedges and contracts each
    # harmonic basis vector alone and reads its coordinates, on the flat,
    # sheared, deformed and mapping-torus models of dimensions 7 and 11.
    from cosym3 import d_homothetic_deform, flat_torus
    from cosym3.exterior import sparse_contract, sparse_wedge

    m7f_space, m7f_t = m7f_model
    models = {
        "torus7": torus7,
        "m7f": m7f_model,
        "gl7_torus7": cases.gl7_torus7(),
        "torus11": flat_torus(2),
        "sheared11": cases.sheared11(),
        "m7f_D_2/3": (m7f_space, d_homothetic_deform(m7f_t, "2/3")),
        "swap11": cases.swap11(),
    }
    fractional = set()
    for name, (space, t) in models.items():
        m = t.m
        ops = small_operators(space, t)
        bases = [linalg.EchelonBasis(harmonic_space(space, t, k)) for k in range(m + 1)]
        for alpha in (1, 2, 3):
            s = t.structure(alpha)
            eta = form_vector(s.eta)
            xi = {i: p.constant_value() for i, p in enumerate(s.xi.components) if p}
            l_blocks = _per_image_blocks(bases, {k: k + 1 for k in range(m)}, lambda v: sparse_wedge(eta, v))
            lam_blocks = _per_image_blocks(bases, {k: k - 1 for k in range(1, m + 1)}, lambda v: sparse_contract(xi, v))
            assert ops[f"l{alpha}"].sparse_blocks == l_blocks, (name, alpha)
            assert ops[f"lambda{alpha}"].sparse_blocks == lam_blocks, (name, alpha)
            for op in ("l", "lambda"):
                entries = [x for block in ops[f"{op}{alpha}"].sparse_blocks.values() for x in block.values()]
                assert all(type(x) is int or x.denominator != 1 for x in entries), (name, op, alpha)
                if any(type(x) is not int for x in entries):
                    fractional.add(name)
    # The D_a-deformed xi_alpha = xi/a give lambda_alpha non-integral entries.
    assert fractional == {"m7f_D_2/3"}


def test_lambda_leaving_the_harmonic_forms_names_its_degree(m7f_model):
    # xi_1 + d/dx1 contracts invariant 2-forms of m7f to fiber 1-forms that
    # the monodromy moves; wedging with eta_1 still preserves everything.
    from cosym3 import AlmostContactMetricStructure, ThreeStructure, VectorField

    space, t = m7f_model
    s = t.structure(1)
    moved = AlmostContactMetricStructure(s.phi, s.xi + VectorField.coordinate(7, 0), s.eta, s.g)
    broken = ThreeStructure([moved, t.structure(2), t.structure(3)])
    message = "^lambda1 does not preserve harmonic forms at degree 2$"
    with pytest.raises(CohomologyError, match=message):
        small_operators(space, broken)
    with pytest.raises(CohomologyError, match=message):
        decompose(space, broken)


def _replace_eta_xi(t, alpha, xi=None, eta=None):
    from cosym3 import AlmostContactMetricStructure, ThreeStructure

    s = t.structure(alpha)
    new = AlmostContactMetricStructure(s.phi, s.xi if xi is None else xi, s.eta if eta is None else eta, s.g)
    return ThreeStructure([new if idx == alpha else t.structure(idx) for idx in (1, 2, 3)])


def test_decompose_builds_no_small_operators_on_consistent_models(torus7, m7f_model, monkeypatch):
    # The split's own checks prove every l_alpha, lambda_alpha and e_alpha
    # check, so the operators are built only to name a failure.
    from cosym3 import VectorField, cohomology

    calls = []
    original = cohomology.small_operators

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cohomology, "small_operators", counting)
    for space, t in (torus7, m7f_model, cases.sheared11(), cases.swap11()):
        decompose(space, t)
    assert calls == []
    # The pinned noncommuting-e input: xi_1 + d/dt2 on torus7.
    space, t = torus7
    broken = _replace_eta_xi(t, 1, xi=t.structure(1).xi + VectorField.coordinate(7, 5))
    with pytest.raises(CohomologyError, match="^e1 and e2 do not commute on degree 1$"):
        decompose(space, broken)
    assert len(calls) == 1


def test_decompose_fails_exactly_where_the_oracle_does(torus7, m7f_model):
    # Seeded eta/xi mutants of flat and mapping-torus models of dimensions 7
    # and 11: decompose passes exactly when every identity it once checked in
    # turn holds, and otherwise raises the first one that fails.
    rng = random.Random(2028)
    passed = set()
    for name, (space, t) in {"torus7": torus7, "m7f": m7f_model, "swap11": cases.swap11()}.items():
        for _ in range(20):
            mutant, desc = randgen.mutate_eta_xi(rng, t)
            expected = oracles.first_inconsistency(space, mutant)
            if expected is None:
                decompose(space, mutant)
                passed.add(name)
            else:
                with pytest.raises(CohomologyError) as info:
                    decompose(space, mutant)
                assert str(info.value) == expected, (name, desc)
    assert passed == {"torus7"}


def test_component_dimensions_and_ladder_hold_on_every_split(torus7, m7f_model):
    # decompose does not check dim C_eps^k = bh_(k-|eps|) or the ladder's
    # bijections: its own checks prove both.  Every table it returns bears that
    # out, on flat, sheared, deformed and mapping-torus models of dimensions 7
    # and 11 and on the seeded eta/xi mutants of them that it accepts.
    from cosym3 import d_homothetic_deform

    m7f_space, m7f_t = m7f_model
    models = [torus7, m7f_model, cases.gl7_torus7(), cases.sheared11(), cases.swap11(),
              (m7f_space, d_homothetic_deform(m7f_t, "2/3"))]
    rng = random.Random(2030)
    models += [(space, randgen.mutate_eta_xi(rng, t)[0]) for space, t in models[:5] for _ in range(6)]
    accepted = 0
    for space, t in models:
        try:
            table = decompose(space, t)
        except CohomologyError:
            continue
        accepted += 1
        for k in range(table.m + 1):
            for eps in EPS_ORDER:
                expected = table.bh[k - sum(eps)] if k >= sum(eps) else 0
                assert len(table.span(k, eps)) == expected, (k, eps)
        assert verify_ladder(space, t, table).passed
    assert accepted == 6 + 4  # every model and four of the mutants


def test_split_guards_name_the_unproven_step(m7f_model):
    # Called alone, the split names the first of its own checks that fails;
    # through decompose, small_operators names an earlier failure first.
    from cosym3 import VectorField
    from cosym3.cohomology import _harmonic_bases, _split

    space, t = m7f_model
    bases = _harmonic_bases(space, t)
    moved_xi = _replace_eta_xi(t, 1, xi=t.structure(1).xi + VectorField.coordinate(7, 0))
    with pytest.raises(CohomologyError, match="^kernel form 0 at degree 2 is not basic$"):
        _split(moved_xi, bases)
    moved_eta = _replace_eta_xi(t, 1, eta=t.structure(1).eta + KForm.coordinate(7, 0))
    with pytest.raises(CohomologyError, match="^component 100 at degree 1 is not harmonic$"):
        _split(moved_eta, bases)
