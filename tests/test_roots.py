import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelab.cartan import load_diagram
from borelab.roots import (
    coroot_pair,
    delta,
    dominant_ascent,
    highest_root,
    is_long,
    longest_quotient,
    neg,
    norm_sq,
    positive_root_count,
    raising_closure,
    reflect_simple,
    scale,
    simple_root,
    sub,
    subsystem_closure,
    weyl_group_order,
)
from oracles import from_reflection, ht, ht_subset, is_real_root, root_kind

LABELS = ["A2~1", "B3~1", "C3~1", "D4~1", "G2~1", "F4~1", "A2~2", "A5~2", "D5~2"]


def test_kind_basics():
    d = load_diagram("A2~1")
    assert root_kind(d, (0, 0, 0)) == "none"
    assert root_kind(d, delta(d)) == "imaginary"
    assert root_kind(d, scale(3, delta(d))) == "imaginary"
    assert root_kind(d, scale(-2, delta(d))) == "imaginary"
    assert root_kind(d, (1, -1, 0)) == "none"
    assert root_kind(d, (1, 1, 0)) == "real"
    assert root_kind(d, (2, 1, 1)) == "real"  # delta + alpha_0
    assert root_kind(d, (2, 2, 1)) == "real"  # delta + alpha_0 + alpha_1
    assert root_kind(d, (2, 0, 1)) == "none"


def test_kind_twisted():
    # in the twisted rank-1 case the long root shifts by 2*delta, not delta
    d = load_diagram("A2~2")
    dd = delta(d)  # (2, 1)
    long_root = simple_root(d, 1)
    assert root_kind(d, sub(dd, long_root)) == "none"
    assert root_kind(d, (2, 2)) == "none"  # delta + alpha_1
    assert root_kind(d, (4, 3)) == "real"  # 2delta + alpha_1
    assert root_kind(d, (4, 1)) == "real"  # 2delta - alpha_1
    assert root_kind(d, (1, 1)) == "real"  # alpha_0 + alpha_1


def test_kind_symmetry_under_negation():
    for label in LABELS:
        d = load_diagram(label)
        for root in list(subsystem_closure(d, d.nodes[1:]))[:20]:
            assert root_kind(d, neg(root)) == root_kind(d, root)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_words_send_simples_to_real_roots(data):
    label = data.draw(st.sampled_from(LABELS))
    d = load_diagram(label)
    word = data.draw(st.lists(st.sampled_from(list(d.nodes)), max_size=10))
    a = simple_root(d, data.draw(st.sampled_from(list(d.nodes))))
    for i in word:
        a = reflect_simple(d, a, i)
    assert root_kind(d, a) == "real"
    assert norm_sq(d, a) in (Fraction(2), Fraction(1), Fraction(2, 3), Fraction(1, 2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reflection_is_involutive(data):
    label = data.draw(st.sampled_from(LABELS))
    d = load_diagram(label)
    nodes = list(d.nodes)
    beta = simple_root(d, data.draw(st.sampled_from(nodes)))
    for i in data.draw(st.lists(st.sampled_from(nodes), max_size=6)):
        beta = reflect_simple(d, beta, i)
    a = tuple(data.draw(st.integers(-3, 3)) for _ in nodes)
    s = from_reflection(d, beta)
    assert s.apply(s.apply(a)) == a


def test_closure_sizes():
    # classical positive-root counts
    e8 = load_diagram("E8~1")
    assert len(subsystem_closure(e8, range(1, 9))) == 120
    assert len(subsystem_closure(e8, range(2, 9))) == 63  # E7
    assert len(subsystem_closure(e8, range(3, 9))) == 36  # E6
    assert len(subsystem_closure(e8, [0])) == 1
    b4 = load_diagram("B4~1")
    assert len(subsystem_closure(b4, [1, 2, 3, 4])) == 16
    c3 = load_diagram("C3~1")
    assert len(subsystem_closure(c3, [0, 1, 2])) == 9
    d5 = load_diagram("D5~1")
    assert len(subsystem_closure(d5, [1, 2, 3, 4, 5])) == 20
    f4 = load_diagram("F4~1")
    assert len(subsystem_closure(f4, [1, 2, 3, 4])) == 24
    g2 = load_diagram("G2~1")
    assert len(subsystem_closure(g2, [1, 2])) == 6
    a6 = load_diagram("A6~1")
    assert len(subsystem_closure(a6, [1, 2, 3])) == 6


# every function of a finite parabolic W_J, called as f(d, J)
PARABOLIC = {
    "subsystem_closure": subsystem_closure,
    "positive_root_count": positive_root_count,
    "weyl_group_order": weyl_group_order,
    "dominant_ascent": lambda d, nodes: dominant_ascent(d, nodes, simple_root(d, 0)),
    "highest_root": highest_root,
    "longest_quotient": lambda d, nodes: longest_quotient(d, (), nodes),
}


@pytest.mark.parametrize("fn", PARABOLIC.values(), ids=PARABOLIC)
def test_closure_requires_proper_subset(fn):
    # all of an affine diagram's nodes span an infinite Weyl group: a count
    # read off the type tables would be a wrong finite number and a walk
    # would not end, so each refuses J, by a raise that python -O keeps; a
    # node out of range, which a negative index would read as another node,
    # is refused too
    for label in ("A2~1", "D4~1", "C3~1", "A4~2", "E8~1"):
        d = load_diagram(label)
        for nodes in (d.nodes[::-1], (-1,), (0, d.size)):
            with pytest.raises(ValueError, match=re.escape(
                    f"nodes {sorted(nodes)} are not a proper subset of {label}'s nodes")):
                fn(d, nodes)


def test_raising_closure_refuses_zero_grade():
    # grade 0 on every node leaves every multiple of delta at grade 0: the
    # set is infinite and the walk would not end, so it is refused by a
    # raise that python -O keeps; subsystem_closure refuses all nodes before
    # it builds such a grade
    for label in ("A2~1", "C3~1", "A4~2", "E8~1"):
        d = load_diagram(label)
        with pytest.raises(ValueError, match=re.escape(
                f"grade {(0,) * d.size} is 0 on every node of {label}")):
            raising_closure(d, (0,) * d.size, 2)
        with pytest.raises(ValueError, match="not a proper subset"):
            subsystem_closure(d, d.nodes)


def test_raising_closure_grades():
    # E8~1{1}: the even roots of A1 + E7, S1 and the odd-height-2 roots,
    # delta included; top 0 keeps the even roots alone
    e8 = load_diagram("E8~1")
    flags = (0, 1, 0, 0, 0, 0, 0, 0, 0)
    roots = raising_closure(e8, flags, 2)
    assert sorted(Counter(roots.values()).items()) == [(0, 64), (1, 112), (2, 129)]
    assert roots[delta(e8)] == 2
    assert raising_closure(e8, flags, 0) == {a: 0 for a, g in roots.items() if not g}
    # A2~1 adjoint{0}: delta has grade 1 and 2 * delta grade 2
    a2 = load_diagram("A2~1")
    roots = raising_closure(a2, (1, 0, 0), 2)
    assert roots[delta(a2)] == 1 and roots[scale(2, delta(a2))] == 2


def test_highest_roots():
    e8 = load_diagram("E8~1")
    theta = highest_root(e8, range(1, 9))
    assert theta == (0, 2, 3, 4, 5, 6, 4, 2, 3)
    assert sub(delta(e8), theta) == simple_root(e8, 0)
    assert highest_root(e8, range(2, 9)) == (0, 0, 1, 2, 3, 4, 3, 2, 2)
    # the nodes are read once, so a one-shot iterator gives the same root
    assert highest_root(e8, iter(range(2, 9))) == (0, 0, 1, 2, 3, 4, 3, 2, 2)
    g2 = load_diagram("G2~1")
    assert highest_root(g2, [1, 2]) == (0, 2, 3)
    b4 = load_diagram("B4~1")
    assert highest_root(b4, [1, 2, 3, 4]) == (0, 1, 2, 2, 2)
    assert highest_root(b4, [4]) == simple_root(b4, 4)


@pytest.mark.parametrize("label,nodes", [("E8~1", (1, 3)), ("B4~1", (1, 4)), ("G2~1", ())])
def test_highest_root_refuses_disconnected_nodes(label, nodes):
    # the ascent alone would stop at the first long simple root
    with pytest.raises(ValueError, match="not connected"):
        highest_root(load_diagram(label), nodes)


def test_highest_root_refusal_names_sorted_nodes_of_an_iterator():
    with pytest.raises(ValueError, match=re.escape("subsystem on [1, 3, 4] is not connected")):
        highest_root(load_diagram("B4~1"), iter([4, 1, 3]))


def test_heights():
    e8 = load_diagram("E8~1")
    theta = highest_root(e8, range(1, 9))
    assert ht(theta) == 29
    assert ht_subset(theta, [1]) == 2
    assert ht_subset(theta, []) == 0


def test_norms_and_long():
    g2 = load_diagram("G2~1")
    assert norm_sq(g2, simple_root(g2, 1)) == 2
    assert norm_sq(g2, simple_root(g2, 2)) == Fraction(2, 3)
    assert is_long(g2, simple_root(g2, 1))
    assert not is_long(g2, simple_root(g2, 2))
    c3 = load_diagram("C3~1")
    # short roots are relatively long inside an all-short subsystem
    assert not is_long(c3, simple_root(c3, 1))
    assert is_long(c3, simple_root(c3, 1), nodes=[1, 2])
    d5 = load_diagram("D5~2")
    assert norm_sq(d5, simple_root(d5, 0)) == 1
    assert norm_sq(d5, simple_root(d5, 2)) == 2


SWEEP_LABELS = [
    "A1~1", "A2~1", "A3~1", "A4~1", "A5~1", "B2~1", "B3~1", "B4~1",
    "C3~1", "D4~1", "D5~1", "G2~1", "F4~1",
    "A2~2", "A4~2", "A5~2", "D4~2", "D5~2",
]


@pytest.mark.parametrize("label", SWEEP_LABELS)
def test_is_long_matches_closure_maximum(label):
    # oracle: the longest root of the whole closure, not of its simple roots
    d = load_diagram(label)
    for size in range(1, d.size):
        for nodes in combinations(d.nodes, size):
            closure = subsystem_closure(d, nodes)
            top = max(norm_sq(d, b) for b in closure)
            for a in closure | {simple_root(d, i) for i in d.nodes}:
                assert is_long(d, a, nodes) == (norm_sq(d, a) == top)


@pytest.mark.parametrize("label", SWEEP_LABELS)
def test_positive_root_count_matches_closure(label):
    # oracle: the closure itself, against the highest-root formula; the walks
    # end exactly: the walk to w0(J) takes |Phi_J^+| steps, and no dominant
    # ascent takes more
    d = load_diagram(label)
    for size in range(1, d.size):
        for nodes in combinations(d.nodes, size):
            count = positive_root_count(d, nodes)
            assert count == len(subsystem_closure(d, nodes)), nodes
            assert len(longest_quotient(d, (), nodes)) == count, nodes
            for a in d.nodes:
                assert len(dominant_ascent(d, nodes, simple_root(d, a))[1]) <= count, (nodes, a)
    assert positive_root_count(d, ()) == 0


def test_coroot_pair_values():
    d = load_diagram("B3~1")
    theta = highest_root(d, [1, 2, 3])  # e1 + e2 in coordinates
    for i, want in [(1, 0), (2, 1), (3, 0), (0, -2)]:
        assert coroot_pair(d, theta, simple_root(d, i)) == want
    assert coroot_pair(d, theta, theta) == 2


def test_delta_is_orthogonal_to_everything():
    for label in LABELS:
        d = load_diagram(label)
        dd = delta(d)
        for i in d.nodes:
            assert coroot_pair(d, simple_root(d, i), dd) == 0


def test_real_roots_delta_shift():
    # untwisted: adding delta to a real root gives a real root
    d = load_diagram("D4~1")
    for root in subsystem_closure(d, [1, 2, 3, 4]):
        assert is_real_root(d, add_tuples(root, delta(d)))


def add_tuples(a, b):
    return tuple(x + y for x, y in zip(a, b))
