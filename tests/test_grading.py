from itertools import product
from math import lcm

import pytest

from borelab.cartan import load_diagram
from borelab.grading import analyze, catalog_involutions, context_for, involution
from borelab.roots import simple_root
from oracles import ht_odd, is_real_root, root_kind

SWEEP_LABELS = [
    "A1~1", "A2~1", "A3~1", "A4~1", "A5~1", "B2~1", "B3~1", "B4~1",
    "C3~1", "D4~1", "D5~1", "G2~1", "F4~1",
    "A2~2", "A4~2", "A5~2", "D4~2", "D5~2",
]


def box_scan(ctx):
    """Odd-height-1 roots by brute force: even coordinates are bounded by
    k * marks, so scan that box with a squared-length filter and confirm each
    survivor by reflection descent."""
    d, k = ctx.d, ctx.k
    gram = [[d.symmetrizer[i] * d.cartan[i][j] for j in d.nodes] for i in d.nodes]
    lam = lcm(*(x.denominator for row in gram for x in row))
    gint = [[int(lam * x) for x in row] for row in gram]
    allowed = {int(lam * 2 * di) for di in d.symmetrizer}
    even = list(ctx.even)
    found = set()
    for b in ctx.odd:
        for combo in product(*(range(k * d.marks[i] + 1) for i in even)):
            vec = [0] * d.size
            vec[b] = 1
            for pos, c in zip(even, combo):
                vec[pos] = c
            q = sum(vi * gint[i][j] * vj for i, vi in enumerate(vec) for j, vj in enumerate(vec))
            if q in allowed and is_real_root(d, tuple(vec)):
                found.add(tuple(vec))
    return frozenset(found)


def test_involution_validation():
    a2 = load_diagram("A2~1")
    with pytest.raises(ValueError, match="flag weight 1 on an untwisted diagram is an adjoint grading"):
        involution(a2, [0])  # weight 1 without adjoint
    with pytest.raises(ValueError, match="A2~1 has nodes 0..2; no node 99"):
        involution(a2, [99])
    with pytest.raises(ValueError,
                       match=r"an adjoint grading \(--adjoint\) has flag weight 1, not 2"):
        involution(a2, [0, 1], adjoint=True)
    with pytest.raises(ValueError,
                       match=r"adjoint gradings \(--adjoint\) only exist on untwisted diagrams"):
        involution(load_diagram("D5~2"), [1], adjoint=True)
    with pytest.raises(ValueError, match="requires an untwisted diagram; D5~2 is twisted"):
        involution(load_diagram("D5~2"), [1, 2])  # weight 2 on twisted


def test_involution_spec_equality_and_hash():
    # equal on (diagram, flags, adjoint), so a spec from a second load of the
    # diagram finds the first one's entry as a dict key
    spec = involution(load_diagram("A3~1"), [0, 2])
    again = involution(load_diagram("A3~1"), [2, 0])
    assert spec is not again and spec == again and hash(spec) == hash(again)
    table = {spec: "first"}
    assert table[again] == "first"
    assert involution(load_diagram("A3~1"), [0, 1]) not in table
    assert involution(load_diagram("A3~1"), [0], adjoint=True) not in table
    assert involution(load_diagram("A3~1"), [0], adjoint=True) != involution(
        load_diagram("A3~1"), [2], adjoint=True)
    assert spec != (spec.diagram, spec.flags, spec.adjoint)


def test_k_values():
    assert context_for("A5~1", [0, 3]).k == 1
    assert context_for("E8~1", [1]).k == 1
    assert context_for("D5~2", [1]).k == 2
    assert context_for("A2~1", [0], adjoint=True).k == 2


def test_describe():
    assert context_for("A5~1", [0, 3]).spec.describe() == "A5~1 odd={0,3}"
    assert context_for("A2~1", [0], adjoint=True).spec.describe() == "A2~1 adjoint odd={0}"


def test_catalog_counts():
    e8 = load_diagram("E8~1")
    assert len(catalog_involutions(e8)) == 2
    assert len(catalog_involutions(e8, include_adjoint=True)) == 3
    a6 = load_diagram("A6~1")
    assert len(catalog_involutions(a6, dedupe=False)) == 21
    assert len(catalog_involutions(a6)) == 3  # pair distances 1, 2, 3 on the 7-cycle
    assert len(catalog_involutions(a6, dedupe=False, include_adjoint=True)) == 28
    d5 = load_diagram("D5~1")
    assert [s.odd_nodes for s in catalog_involutions(d5)] == [(2,), (0, 1), (0, 4)]
    assert [s.odd_nodes for s in catalog_involutions(load_diagram("D5~2"))] == [
        (0,), (1,), (2,)]
    # twisted diagrams have no adjoint entries
    assert len(catalog_involutions(load_diagram("D5~2"), include_adjoint=True)) == 3


def test_catalog_specs_are_valid():
    for label in ["A5~1", "B4~1", "C3~1", "D5~1", "E7~1", "F4~1", "A5~2", "E6~2"]:
        for spec in catalog_involutions(load_diagram(label), include_adjoint=True):
            analyze(spec)  # must not raise


def test_odd_height():
    ctx = context_for("E8~1", [1])
    assert ht_odd(ctx, (0, 2, 3, 4, 5, 6, 4, 2, 3)) == 2  # highest root
    assert ht_odd(ctx, simple_root(ctx.d, 1)) == 1
    assert ht_odd(ctx, simple_root(ctx.d, 5)) == 0


def test_complex_classification():
    # k=1: nothing is complex
    e8 = context_for("E8~1", [1])
    assert not any(e8.is_complex(simple_root(e8.d, i)) for i in e8.d.nodes)
    # adjoint: every real root is complex
    adj = context_for("A2~1", [0], adjoint=True)
    assert adj.is_complex(simple_root(adj.d, 1))
    assert adj.is_complex((0, 1, 1))
    # twisted k=2: exactly the short roots are complex
    d5 = context_for("D5~2", [1])
    assert d5.is_complex(simple_root(d5.d, 0))
    assert d5.is_complex(simple_root(d5.d, 4))
    assert not d5.is_complex(simple_root(d5.d, 2))
    assert d5.root_type(simple_root(d5.d, 2)) == 1
    assert d5.root_type(simple_root(d5.d, 0)) == 2


def test_e8_components_and_walls():
    ctx = context_for("E8~1", [1])
    assert [c.nodes for c in ctx.components] == [(0,), (2, 3, 4, 5, 6, 7, 8)]
    c1, c2 = ctx.components
    assert c1.theta == simple_root(ctx.d, 0)
    assert c1.eps == 2 and c1.level == 1 and c1.wall_included
    assert c1.sub_dual_coxeter == 2
    assert c1.region == (1, 2, 3, 4, 5, 6, 7, 8)
    assert c1.region_in_component == ()
    assert c2.theta == (0, 0, 1, 2, 3, 4, 3, 2, 2)
    assert c2.eps == 1 and c2.level == 1 and c2.wall_included
    assert c2.sub_dual_coxeter == 18
    assert c2.region == (0, 1, 2, 3, 4, 5, 6, 8)
    assert c2.region_in_component == (2, 3, 4, 5, 6, 8)

    w1, w2, w3 = ctx.walls
    assert (w1.kind, w1.wall_type) == ("component", 1)
    assert (w2.kind, w2.wall_type) == ("component", 1)
    assert (w3.kind, w3.wall_type, w3.node) == ("odd", 1, 1)
    assert w1.heads == (1, 2, 3, 4, 5, 6, 7, 8)
    assert w2.heads == (0, 1, 2, 3, 4, 5, 6, 8)
    assert w3.heads == (1,)
    assert w1.blocked == ()
    assert w2.blocked == (7,)
    assert w3.blocked == (1,)


def test_d5_twisted_walls():
    ctx = context_for("D5~2", [1])
    w1, w2, w3 = ctx.walls
    assert w1.root == (1, 2, 2, 2, 2) and w1.wall_type == 2
    assert w2.root == (2, 2, 1, 0, 0) and w2.wall_type == 1
    assert w3.root == (2, 3, 2, 2, 2) and w3.kind == "odd"
    assert w1.heads == (0,)
    assert w2.heads == (1, 2)
    assert w3.heads == (1,)
    assert w1.blocked == (1,)
    assert w2.blocked == (3,)
    assert w3.blocked == (1,)


def test_wall_exclusions():
    # components whose highest root is too short contribute no wall
    g2 = context_for("G2~1", [1])
    assert [(c.nodes, c.wall_included) for c in g2.components] == [
        ((0,), True), ((2,), False)]
    assert [(w.kind, w.root) for w in g2.walls] == [
        ("component", (0, 2, 3)), ("odd", (1, 3, 3))]
    a22 = context_for("A2~2", [1])
    assert not a22.components[0].wall_included
    assert [(w.kind, w.root) for w in a22.walls] == [("odd", (4, 3))]
    assert sorted(a22.bounding_roots()) == [(1, 0), (4, 3)]


def test_region_goldens():
    b7 = context_for("B7~1", [4])
    c1, c2 = b7.components
    assert c1.region == (3, 4, 5, 6, 7)
    assert c1.region_in_component == (3,)
    assert c2.region == (0, 1, 2, 3, 4, 5)
    assert c2.region_in_component == (5,)
    e6 = context_for("E6~1", [6])
    c1, c2 = e6.components
    assert c1.nodes == (0,)
    assert c1.region == (1, 2, 3, 4, 5, 6)
    assert c1.region_in_component == ()
    assert c2.region == (0, 2, 3, 4, 6)
    assert c2.region_in_component == (2, 3, 4)


def test_adjoint_wall():
    ctx = context_for("A2~1", [0], adjoint=True)
    (w,) = ctx.walls
    assert w.kind == "component" and w.wall_type == 2
    assert w.root == (2, 1, 1)  # 2*delta minus the highest root of the even part
    assert w.heads == (1, 2)
    assert w.blocked == (0,)


def test_quotient_data():
    ctx = context_for("E8~1", [1])
    w1, w2, _ = ctx.walls
    # alpha outside the component, starred system picks up the highest root
    perp, starred = ctx.quotient_data(0, w2)
    assert perp == (2, 3, 4, 5, 6, 7, 8)
    assert set(starred) == {simple_root(ctx.d, i) for i in (2, 3, 4, 5, 6, 8)} | {
        ctx.components[1].theta}
    # alpha inside the component: no star
    perp, starred = ctx.quotient_data(2, w2)
    assert perp == (0, 4, 5, 6, 7, 8)
    assert set(starred) == {simple_root(ctx.d, i) for i in (0, 4, 5, 6, 8)}
    # odd alpha: no star either
    perp, starred = ctx.quotient_data(1, w1)
    assert perp == (3, 4, 5, 6, 7, 8)
    assert set(starred) == {simple_root(ctx.d, i) for i in (3, 4, 5, 6, 7, 8)}


def test_odd_height_one_counts():
    assert len(context_for("E8~1", [1]).odd_height_one_roots) == 112
    assert len(context_for("D5~2", [1]).odd_height_one_roots) == 20
    assert len(context_for("A2~1", [0], adjoint=True).odd_height_one_roots) == 6
    assert len(context_for("A6~1", [0, 3]).odd_height_one_roots) == 24
    assert len(context_for("A1~1", [0, 1]).odd_height_one_roots) == 2


@pytest.mark.parametrize("label", SWEEP_LABELS)
def test_odd_height_one_closure_matches_box_scan(label):
    for spec in catalog_involutions(load_diagram(label), include_adjoint=True, dedupe=False):
        ctx = analyze(spec)
        assert ctx.odd_height_one_roots == box_scan(ctx), spec.describe()


def test_odd_height_one_closure_e8_adjoint():
    # beyond the box scan's reach: its box has 14 million points here
    ctx = context_for("E8~1", [0], adjoint=True)
    s1 = ctx.odd_height_one_roots
    assert len(s1) == 240  # delta + gamma for every root gamma of E8
    assert all(ht_odd(ctx, g) == 1 and root_kind(ctx.d, g) == "real" for g in s1)


def test_odd_height_one_contents():
    ctx = context_for("A2~1", [0], adjoint=True)
    # adjoint: delta + gamma for every root gamma of the even subalgebra,
    # delta itself excluded
    dd = (1, 1, 1)
    assert dd not in ctx.odd_height_one_roots
    for g in ctx.odd_height_one_roots:
        assert ht_odd(ctx, g) == 1
    assert (1, 0, 0) in ctx.odd_height_one_roots  # delta minus the highest root
    assert (1, 2, 2) in ctx.odd_height_one_roots  # delta plus the highest root


def test_even_positive_roots():
    assert len(context_for("E8~1", [1]).even_positive_roots) == 1 + 63
    assert len(context_for("D5~2", [1]).even_positive_roots) == 1 + 9
    assert context_for("A1~1", [0, 1]).even_positive_roots == frozenset()
