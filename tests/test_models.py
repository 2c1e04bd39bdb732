from fractions import Fraction

import pytest

from cosym3 import (
    EndField,
    check_hyper_kahler_isometry,
    check_three_cosymplectic,
    euclidean_space,
    flat_torus,
    hyper_kahler_blocks,
    mapping_torus,
    monodromy_invariance,
    quaternion_left_mult,
    quaternion_right_mult,
)
from cosym3.models import ModelError, OrderBoundError, Topology, builtin, builtin_names
from cosym3 import linalg

import oracles


UNITS = ["1", "i", "j", "k", "-1", "-i", "-j", "-k"]


def test_left_multiplication_table():
    data = hyper_kahler_blocks(1)
    j1, j2, j3 = data.j_ops
    # J1 maps the basis quaternion 1 to i.
    e0 = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    assert oracles.mat_vec(j1.to_fractions(), e0) == [0, 1, 0, 0]
    assert j1 * j2 == j3
    for j in (j1, j2, j3):
        mat = j.to_fractions()
        assert oracles.dense_mul(oracles.dense_transpose(mat), mat) == oracles.identity(4)
    # Against the independent quaternion expansion.
    for name, j in zip(("i", "j", "k"), data.j_ops):
        assert j.to_fractions() == oracles.left_mult_matrix(name)


def test_quaternion_right_mult_oracle():
    r_i = quaternion_right_mult("i")
    assert r_i.to_fractions() == oracles.right_mult_matrix("i")
    assert quaternion_right_mult("1") == EndField.identity(4)
    assert linalg.matrix_order(r_i.to_fractions(), 10) == 4
    # x -> x*i sends (a, b, c, d) to (-b, a, d, -c)
    v = [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
    assert oracles.mat_vec(r_i.to_fractions(), v) == [-2, 1, 4, -3]


def test_right_mult_antihomomorphism():
    for u in UNITS:
        for v in UNITS:
            lhs = quaternion_right_mult(u) * quaternion_right_mult(v)
            prod = oracles.quat_mul(oracles.unit(v), oracles.unit(u))
            names = ["1", "i", "j", "k"]
            idx = next(a for a in range(4) if prod[a])
            w = ("-" if prod[idx] < 0 else "") + names[idx]
            assert lhs == quaternion_right_mult(w), (u, v)


def test_right_mult_commutes_with_left():
    for u in ("i", "j", "k"):
        for w in ("i", "j", "k"):
            r = quaternion_right_mult(u)
            l = quaternion_left_mult(w)
            assert r * l == l * r


def test_isometry_check():
    data = hyper_kahler_blocks(1)
    r_i = quaternion_right_mult("i")
    assert check_hyper_kahler_isometry(r_i, data).passed
    assert mapping_torus(data, r_i)[0].topology.order == 4
    # Left multiplication fails the commutation checks.
    rep = check_hyper_kahler_isometry(data.j_ops[0], data)
    assert not rep.passed
    assert not rep.item("monodromy_commutes_J2").passed
    # Scaling fails the isometry item.
    rep = check_hyper_kahler_isometry(EndField.identity(4).scaled(2), data)
    assert not rep.item("monodromy_isometry").passed
    assert not rep.item("monodromy_unimodular").passed
    with pytest.raises(OrderBoundError):
        mapping_torus(data, r_i, order_bound=3)


def test_topology_of_decides_the_order():
    r_i = quaternion_right_mult("i")
    topo = Topology.of("mapping_torus", r_i)
    assert (topo.fiber_dim, topo.order) == (4, 4)
    assert Topology.of("torus", EndField.identity(0)).order == 1
    with pytest.raises(OrderBoundError, match="^monodromy not finite order within bound 3$"):
        Topology.of("mapping_torus", r_i, order_bound=3)
    # 2 I has infinite order; a failed isometry check is reported first.
    with pytest.raises(OrderBoundError, match="within bound 60$"):
        Topology.of("mapping_torus", EndField.identity(4).scaled(2))
    with pytest.raises(ModelError, match="^monodromy is not a hyper-Kahler isometry: "):
        mapping_torus(hyper_kahler_blocks(1), EndField.identity(4).scaled(2))


def test_mapping_torus_with_identity_matches_flat_torus():
    space_t, t_torus = flat_torus(1)
    data = hyper_kahler_blocks(1)
    space_m, t_map = mapping_torus(data, EndField.identity(4))
    for alpha in (1, 2, 3):
        assert t_map.structure(alpha).phi == t_torus.structure(alpha).phi
        assert t_map.structure(alpha).xi == t_torus.structure(alpha).xi
        assert t_map.structure(alpha).eta == t_torus.structure(alpha).eta
    assert t_map.g == t_torus.g
    assert space_t.topology.kind == "torus"
    assert space_m.topology.kind == "mapping_torus"
    # The torus is the mapping torus with f = I: it carries its holonomy too.
    for topo in (space_t.topology, space_m.topology):
        assert (topo.fiber_dim, topo.monodromy, topo.order) == (4, EndField.identity(4), 1)


def test_m7f_construction(m7f_model):
    space, t = m7f_model
    assert space.chart_dim == 7
    assert space.topology.kind == "mapping_torus"
    assert space.topology.order == 4
    assert check_three_cosymplectic(t).passed
    inv = monodromy_invariance(space, t)
    assert inv.passed, [i.name for i in inv.failures()]


def test_mapping_torus_rejects_non_isometry():
    data = hyper_kahler_blocks(1)
    with pytest.raises(ModelError):
        mapping_torus(data, data.j_ops[0])


def test_standard_and_torus_families():
    for n, dim in ((0, 3), (1, 7)):
        space, t = euclidean_space(n)
        assert space.chart_dim == dim
        assert space.topology.kind == "euclidean"
        assert check_three_cosymplectic(t).passed
        space, t = flat_torus(n)
        assert space.chart_dim == dim
        assert check_three_cosymplectic(t).passed
    # n = 0: phi acts only on the Reeb directions.
    space, t = flat_torus(0)
    for alpha in (1, 2, 3):
        phi = t.structure(alpha).phi
        assert phi.m == 3
        assert not all(p.is_zero() for row in phi.entries for p in row)


def test_constructed_tensors_are_constant(m7f_model, torus7):
    for space, t in (m7f_model, torus7):
        for alpha in (1, 2, 3):
            s = t.structure(alpha)
            assert s.phi.is_constant()
            assert s.xi.is_constant()
            assert s.eta.is_constant()
        assert t.g.is_constant()


def test_builtin_registry():
    names = builtin_names()
    assert {"standard7", "torus7", "m7f", "torus3", "torus11"} <= set(names)
    space, t = builtin("torus7")
    assert space.chart_dim == 7
    space, t = builtin("m7f")
    assert space.topology.kind == "mapping_torus"
    for bad in ("torus8", "torus15", "standard4", "klein"):
        with pytest.raises(ModelError):
            builtin(bad)
