import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelab.cartan import load_diagram
from borelab.roots import (
    coroot_pair,
    delta,
    highest_root,
    longest_quotient,
    simple_root,
    subsystem_closure,
    weyl_group_order,
)
import borelab.weyl as weyl
from borelab.weyl import dominant_mapper
from oracles import (
    apply_inverse,
    coset_poset,
    from_reflection,
    from_word,
    identity_element,
    inverse,
    inverse_matrix,
    is_biconvex,
    is_negative,
    is_positive,
    length_ball,
    minimal_coset_rep,
    minimal_mapper,
    product,
    right_mult_simple,
    word_element,
)

# every diagram the library builds, untwisted and twisted
CATALOG_LABELS = (
    [f"A{n}~1" for n in range(1, 10)] + [f"B{n}~1" for n in range(2, 9)]
    + [f"C{n}~1" for n in range(2, 9)] + [f"D{n}~1" for n in range(4, 10)]
    + ["E6~1", "E7~1", "E8~1", "F4~1", "G2~1", "A2~2"]
    + [f"A{n}~2" for n in range(4, 12)] + [f"D{n}~2" for n in range(3, 10)] + ["E6~2"]
)

A2 = load_diagram("A2~1")
B3 = load_diagram("B3~1")


def test_identity():
    e = identity_element(A2)
    assert weyl.identity(A2) == e.cols == (1, 1 << weyl.W, 1 << 2 * weyl.W)
    assert e.length == 0 and e.word == () and e.inversions == frozenset()
    assert e.apply((1, 2, 3)) == (1, 2, 3)


def test_from_word_cancellation():
    assert from_word(A2, [0, 0]).length == 0
    assert from_word(A2, [1, 2, 2, 1]).length == 0
    assert from_word(A2, [1, 2, 1, 2, 1, 2]).length == 0  # braid + cancel


def test_braid_words_canonicalize_equal():
    u = from_word(A2, [1, 2, 1])
    v = from_word(A2, [2, 1, 2])
    assert u.cols == v.cols
    assert u.word == v.word  # canonical form is word-independent


def test_length_and_inversions():
    w = from_word(A2, [1, 2])
    assert w.length == 2
    assert w.inversions == {(0, 1, 0), (0, 1, 1)}


def test_descents():
    # i is a right descent of w when w(alpha_i) < 0, a left one when
    # w^{-1}(alpha_i) < 0
    w = from_word(A2, [1, 2])
    assert is_negative(w.mat[2]) and w.cols[2] < 0
    assert is_negative(inverse_matrix(w)[1])
    assert is_positive(w.mat[1]) and w.cols[1] > 0


def assert_inversions_by_definition(w):
    """The set read off the reduced word is {gamma > 0 : w^{-1}(gamma) < 0}:
    it lies inside that set and has its size, the length."""
    inv = w.inversions
    assert len(inv) == w.length, w.word
    for g in inv:
        assert is_positive(g) and is_negative(apply_inverse(w, g)), (w.word, g)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_group_laws(data):
    label = data.draw(st.sampled_from(["A2~1", "B3~1", "G2~1", "D5~2"]))
    d = load_diagram(label)
    nodes = list(d.nodes)
    u = from_word(d, data.draw(st.lists(st.sampled_from(nodes), max_size=8)))
    v = from_word(d, data.draw(st.lists(st.sampled_from(nodes), max_size=8)))
    x = tuple(data.draw(st.integers(-2, 2)) for _ in nodes)
    assert product(u, v).apply(x) == u.apply(v.apply(x))
    assert product(inverse(u), u).length == 0
    assert inverse(inverse(u)).cols == u.cols
    for w in (u, v, product(u, v), inverse(u)):  # the words need not be reduced
        assert_inversions_by_definition(w)
    dropped = data.draw(st.sampled_from(nodes))  # leaves a finite parabolic
    ambient = [i for i in nodes if i != dropped]
    subgroup = [simple_root(d, i) for i in ambient if data.draw(st.booleans())]
    for rep in coset_poset(d, ambient, subgroup):
        assert_inversions_by_definition(rep)
    assert from_word(d, u.word).cols == u.cols
    grown = identity_element(d)  # built by extend, one element per letter
    for i in u.word:
        grown = grown.extend(i)
    assert grown.cols == u.cols and grown.word == u.word
    stepped = word_element(d, u.word)  # columns stepped, one element at the end
    assert stepped.cols == u.cols and stepped.word == u.word


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_weak_order_is_inversion_containment(data):
    d = load_diagram("B3~1")
    nodes = list(d.nodes)
    u = from_word(d, data.draw(st.lists(st.sampled_from(nodes), max_size=6)))
    assert identity_element(d).inversions <= u.inversions
    i = data.draw(st.sampled_from(nodes))
    grown = u.extend(i)
    if grown is not None:
        assert u.inversions < grown.inversions


def test_extend_matches_descent():
    w = from_word(A2, [1, 2])
    assert w.extend(2) is None  # 2 is a right descent
    grown = w.extend(0)
    assert grown is not None and grown.length == 3


def test_longest_elements():
    cases = [
        (A2, (1, 2), 3),
        (B3, (1, 2, 3), 9),
        (load_diagram("C3~1"), (0, 1, 2), 9),
        (load_diagram("G2~1"), (1, 2), 6),
        (load_diagram("D4~1"), (1, 2, 3, 4), 12),
        (load_diagram("F4~1"), (1, 2, 3, 4), 24),
    ]
    for d, nodes, count in cases:
        w0 = word_element(d, longest_quotient(d, (), nodes))
        assert w0.length == count == len(subsystem_closure(d, nodes))
        assert product(w0, w0).length == 0
        # w0 maps every positive root of the subsystem to a negative one
        assert w0.inversions == subsystem_closure(d, nodes)
        # w0(J')*w0(J) is the tail of a reduced word of w0(J) after w0(J')
        w0_sub = word_element(d, longest_quotient(d, (), nodes[1:]))
        tail = word_element(d, longest_quotient(d, nodes[1:], nodes))
        assert tail.cols == product(w0_sub, w0).cols and tail.length == w0.length - w0_sub.length
        assert word_element(d, w0_sub.word + tail.word).cols == w0.cols
    assert longest_quotient(A2, (), []) == ()


def test_coset_poset_sizes():
    reps = coset_poset(A2, (1, 2), [simple_root(A2, 1)])
    assert len(reps) == 3
    reps = coset_poset(B3, (1, 2, 3), [simple_root(B3, 1), simple_root(B3, 2)])
    assert len(reps) == 48 // 6
    # representatives are minimal: no subgroup simple root is an inversion
    for u in reps:
        assert simple_root(B3, 1) not in u.inversions
        assert simple_root(B3, 2) not in u.inversions
    # BFS order starts at the identity and lengths never decrease
    lengths = [u.length for u in reps]
    assert lengths[0] == 0 and lengths == sorted(lengths)


def test_minimal_coset_rep():
    w0 = word_element(B3, longest_quotient(B3, (), (1, 2, 3)))
    sub = [simple_root(B3, 2), simple_root(B3, 3)]
    rep = minimal_coset_rep(B3, w0, sub)
    assert rep.length == 9 - 4  # |W(B3)| minus |W(B2)| worth of length
    for beta in sub:
        assert beta not in rep.inversions


def test_minimal_mapper_identity_and_failure():
    a = simple_root(A2, 1)
    assert minimal_mapper(A2, (1, 2), a, a).length == 0
    assert minimal_mapper(A2, (1, 2), a, (5, 5, 5), cap=6) is None


def test_dominant_mapper_identity_and_failure():
    theta = highest_root(A2, (1, 2))
    assert dominant_mapper(A2, (1, 2), theta, theta) == ()
    # alpha_0 is outside the parabolic's roots: its ascent ends elsewhere
    assert dominant_mapper(A2, (1, 2), simple_root(A2, 0), theta) is None


def test_dominant_mapper_refuses_non_dominant_target():
    a1, a2 = simple_root(A2, 1), simple_root(A2, 2)
    # <alpha_1, alpha_2^vee> = -1: alpha_1 is not dominant for node 2
    with pytest.raises(ValueError, match="not dominant"):
        dominant_mapper(A2, (1, 2), a2, a1)


def dominant_element(d, nodes, frm, to):
    """`dominant_mapper`'s reduced word walked to the element it spells."""
    word = dominant_mapper(d, nodes, frm, to)
    return None if word is None else word_element(d, word)


HIGHEST_ROOT_CASES = [
    ("A2~1", (1, 2), 1, 3),
    ("A6~1", (1, 2, 3), 1, 4),
    ("B3~1", (1, 2, 3), 1, 5),
    ("D4~1", (1, 2, 3, 4), 1, 6),
    ("F4~1", (1, 2, 3, 4), 1, 9),
]


@pytest.mark.parametrize(
    "mapper,label,nodes,alpha,g",
    [pytest.param(mapper, label, nodes, alpha, g,
                  id=f"{prefix}{label}-nodes{n}-{alpha}-{g}")
     for prefix, mapper in (("", minimal_mapper), ("dominant-", dominant_element))
     for n, (label, nodes, alpha, g) in enumerate(HIGHEST_ROOT_CASES)],
)
def test_mapper_to_highest_root(mapper, label, nodes, alpha, g):
    # the minimal element sending a long simple root to the highest root has
    # length g - 2, and its inverse inverts exactly the positive roots that
    # pair to -1 with the source coroot
    d = load_diagram(label)
    theta = highest_root(d, nodes)
    a = simple_root(d, alpha)
    y = mapper(d, nodes, a, theta)
    assert y is not None
    assert y.length == g - 2
    predicted = {
        b for b in subsystem_closure(d, nodes) if coroot_pair(d, a, b) == -1
    }
    assert inverse(y).inversions == predicted
    for b in subsystem_closure(d, nodes):
        if coroot_pair(d, theta, b) == 0:
            assert b not in y.inversions


def test_group_orders():
    cases = [
        (A2, (1, 2), 6),
        (B3, (1, 2, 3), 48),
        (load_diagram("C3~1"), (0, 1, 2), 48),
        (load_diagram("D4~1"), (1, 2, 3, 4), 192),
        (load_diagram("D5~1"), (1, 2, 3, 4, 5), 1920),
        (load_diagram("E6~1"), (1, 2, 3, 4, 5, 6), 51840),
        (load_diagram("E8~1"), tuple(range(2, 9)), 2903040),
        (load_diagram("E8~1"), tuple(range(1, 9)), 696729600),
        (load_diagram("F4~1"), (1, 2, 3, 4), 1152),
        (load_diagram("G2~1"), (1, 2), 12),
        (A2, (1,), 2),
        (A2, (), 1),
    ]
    for d, nodes, want in cases:
        assert weyl_group_order(d, nodes) == want


def test_group_orders_against_coset_recursion():
    # independent oracle: |W| = (number of cosets of a maximal parabolic)
    # times the parabolic's order, recursively
    def oracle(d, nodes):
        nodes = tuple(nodes)
        if not nodes:
            return 1
        sub = nodes[:-1]
        reps = coset_poset(d, nodes, [simple_root(d, i) for i in sub])
        return len(reps) * oracle(d, sub)

    for label, nodes in [("A2~1", (1, 2)), ("B3~1", (1, 2, 3)),
                         ("C3~1", (0, 1, 2)), ("G2~1", (1, 2)),
                         ("D4~1", (1, 2, 3, 4)), ("A6~1", (1, 2, 3, 4, 5))]:
        d = load_diagram(label)
        assert oracle(d, nodes) == weyl_group_order(d, nodes)


def test_from_reflection():
    theta = highest_root(A2, (1, 2))
    s = from_reflection(A2, theta)
    assert s.cols == from_word(A2, [1, 2, 1]).cols
    assert s.apply(theta) == tuple(-x for x in theta)
    with pytest.raises(ValueError):
        from_reflection(A2, delta(A2))


def test_biconvex():
    pos = subsystem_closure(A2, (1, 2))
    a1, a2 = simple_root(A2, 1), simple_root(A2, 2)
    theta = highest_root(A2, (1, 2))
    assert is_biconvex(A2, [a1, theta], pos)
    assert is_biconvex(A2, [], pos)
    assert is_biconvex(A2, pos, pos)
    assert not is_biconvex(A2, [a1, a2], pos)  # misses the sum
    assert not is_biconvex(A2, [theta], pos)  # sum of two outsiders
    # inversion sets of subgroup elements are biconvex within the full pool
    for word in [(1,), (2,), (1, 2), (2, 1), (1, 2, 1)]:
        assert is_biconvex(A2, from_word(A2, word).inversions, pos)


def test_length_ball_growth():
    # infinite dihedral: two elements of every positive length
    d = load_diagram("A1~1")
    assert len(length_ball(d, 5)) == 11
    # affine A2 has 3n elements of length n
    assert len(length_ball(A2, 8)) == 1 + 3 * sum(range(1, 9))
    ball = length_ball(A2, 3)
    assert sorted(w.length for w in ball) == [0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3]


def test_right_mult_matches_all_columns_reference():
    # random reduced words, each letter an ascent: the neighbor-only update
    # against the reference that rewrites every column, at every prefix
    rng = random.Random(11)
    steps = 0
    for label in CATALOG_LABELS:
        d = load_diagram(label)
        for _ in range(4):
            w, ref = identity_element(d), identity_element(d).mat
            for _ in range(40):
                i = rng.choice([i for i in d.nodes if is_positive(w.mat[i])])
                packed = weyl._right_mult_simple(d, w.cols, i)
                assert tuple(weyl.unpack(c, d.size) for c in packed) == right_mult_simple(
                    d, w.mat, i)
                w, ref = w.extend(i), right_mult_simple(d, ref, i)
                assert w.mat == ref, (label, w.word)
                assert w.cols == tuple(map(weyl.pack, ref)), (label, w.word)
                steps += 1
    assert steps == 4 * 40 * len(CATALOG_LABELS) == 8160
