import importlib
import pkgutil
from fractions import Fraction
from operator import mul

import pytest

import borelab
from borelab.cartan import (
    AffineDiagram,
    _kernel_vector,
    components,
    diagram_automorphisms,
    dual_coxeter_number,
    load_diagram,
)
from borelab.roots import highest_root, theta_dual_coxeter
from oracles import classify_finite

# marks and comarks frozen from the classical tables
TABLE = {
    "A1~1": ((1, 1), (1, 1)),
    "A2~1": ((1, 1, 1), (1, 1, 1)),
    "B2~1": ((1, 1, 2), (1, 1, 1)),
    "B3~1": ((1, 1, 2, 2), (1, 1, 2, 1)),
    "C3~1": ((1, 2, 2, 1), (1, 1, 1, 1)),
    "D4~1": ((1, 1, 2, 1, 1), (1, 1, 2, 1, 1)),
    "E6~1": ((1, 1, 2, 3, 2, 1, 2), (1, 1, 2, 3, 2, 1, 2)),
    "E7~1": ((1, 2, 3, 4, 3, 2, 1, 2), (1, 2, 3, 4, 3, 2, 1, 2)),
    "E8~1": ((1, 2, 3, 4, 5, 6, 4, 2, 3), (1, 2, 3, 4, 5, 6, 4, 2, 3)),
    "F4~1": ((1, 2, 3, 4, 2), (1, 2, 3, 2, 1)),
    "G2~1": ((1, 2, 3), (1, 2, 1)),
    "A2~2": ((2, 1), (1, 2)),
    "A4~2": ((2, 2, 1), (1, 2, 2)),
    "A5~2": ((1, 1, 2, 1), (1, 1, 2, 2)),
    "D3~2": ((1, 1, 1), (1, 2, 1)),
    "D5~2": ((1, 1, 1, 1, 1), (1, 2, 2, 2, 1)),
    "E6~2": ((1, 2, 3, 2, 1), (1, 2, 3, 4, 2)),
}


@pytest.mark.parametrize("label", sorted(TABLE))
def test_marks_and_comarks(label):
    d = load_diagram(label)
    marks, comarks = TABLE[label]
    assert d.marks == marks
    assert d.comarks == comarks


def test_kernel_property():
    # marks/comarks really are kernel vectors of the Cartan matrix
    for label in TABLE:
        d = load_diagram(label)
        n = d.size
        for i in range(n):
            assert sum(d.cartan[i][j] * d.marks[j] for j in range(n)) == 0
            assert sum(d.cartan[j][i] * d.comarks[j] for j in range(n)) == 0


def test_kernel_vector_refusals():
    # the certificate, not the pass, decides: each matrix without a positive
    # kernel vector is refused with its cause named
    with pytest.raises(ValueError, match="not connected: node 0 reaches 1 of 3"):
        _kernel_vector([[0, 0, 0], [0, 2, -1], [0, -4, 2]])  # corank 2
    with pytest.raises(ValueError, match=r"row 0 of A\*a is not 0"):
        _kernel_vector([[2, -1], [-1, 2]])  # finite type A2: kernel 0
    # two A1~1 blocks: all ones is a positive kernel vector, but the matrix
    # is not connected, so its kernel is a plane
    blocks = [[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]
    assert all(sum(row) == 0 for row in blocks)
    with pytest.raises(ValueError, match="not connected: node 0 reaches 2 of 4"):
        _kernel_vector(blocks)
    with pytest.raises(ValueError, match="pivot -5/2 at node 1"):
        _kernel_vector([[2, -1, 0], [-1, 2, -3], [0, -3, 2]])  # indefinite
    with pytest.raises(ValueError, match=r"candidate \[2, -1\] is not positive"):
        _kernel_vector([[2, 4], [1, 2]])


# README table patterns at rank about 400, with the dual Coxeter number
LARGE = {
    "A400~1": ((1,) * 401, 401),
    "B400~1": ((1, 1) + (2,) * 399, 799),
    "C400~1": ((1,) + (2,) * 399 + (1,), 401),
    "D400~1": ((1, 1) + (2,) * 397 + (1, 1), 798),
    "A800~2": ((2,) * 400 + (1,), 801),
    "A799~2": ((1, 1) + (2,) * 398 + (1,), 800),
    "D401~2": ((1,) * 401, 800),
}


@pytest.mark.parametrize("label", LARGE)
def test_large_rank_marks(label):
    d = load_diagram(label)
    marks, h = LARGE[label]
    assert d.marks == marks
    assert dual_coxeter_number(d) == h
    assert all(sum(map(mul, row, d.marks)) == 0 for row in d.cartan)
    assert all(sum(map(mul, col, d.comarks)) == 0 for col in zip(*d.cartan))


def test_symmetrizer_values():
    assert load_diagram("G2~1").symmetrizer == (1, 1, Fraction(1, 3))
    assert load_diagram("A2~2").symmetrizer == (Fraction(1, 4), 1)
    assert load_diagram("A4~2").symmetrizer == (Fraction(1, 4), Fraction(1, 2), 1)
    assert load_diagram("D5~2").symmetrizer == (
        Fraction(1, 2), 1, 1, 1, Fraction(1, 2))
    assert load_diagram("E6~2").symmetrizer == (
        Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 1, 1)
    assert load_diagram("C3~1").symmetrizer == (1, Fraction(1, 2), Fraction(1, 2), 1)


def test_symmetrizer_symmetrizes():
    for label in TABLE:
        d = load_diagram(label)
        for i in d.nodes:
            for j in d.nodes:
                assert d.symmetrizer[i] * d.cartan[i][j] == d.symmetrizer[j] * d.cartan[j][i]


def test_dual_coxeter_numbers():
    expected = {"A1~1": 2, "A2~1": 3, "B2~1": 3, "B3~1": 5, "C3~1": 4,
                "D4~1": 6, "E6~1": 12, "E7~1": 18, "E8~1": 30, "F4~1": 9,
                "G2~1": 4, "A2~2": 3, "A5~2": 6, "D5~2": 8, "E6~2": 12}
    for label, g in expected.items():
        assert dual_coxeter_number(load_diagram(label)) == g


@pytest.mark.parametrize(
    "label,want",
    [("A5~1", 6), ("B4~1", 7), ("C3~1", 4), ("D5~1", 8), ("E6~1", 12),
     ("E7~1", 18), ("E8~1", 30), ("F4~1", 9), ("G2~1", 4)],
)
def test_finite_dual_coxeter_classical(label, want):
    # dropping the affine node leaves the finite diagram; values are classical
    d = load_diagram(label)
    assert theta_dual_coxeter(d, highest_root(d, [i for i in d.nodes if i != 0])) == want


def test_finite_dual_coxeter_subsystems():
    e8 = load_diagram("E8~1")
    # nodes 2..8 of the extended E8 diagram form an E7
    assert theta_dual_coxeter(e8, highest_root(e8, range(2, 9))) == 18
    assert theta_dual_coxeter(e8, highest_root(e8, [0])) == 2
    with pytest.raises(ValueError):
        highest_root(e8, [0, 4])  # disconnected


def test_classify_finite():
    e8 = load_diagram("E8~1")
    assert classify_finite(e8, range(2, 9)) == "E7"
    assert classify_finite(e8, [0, 2, 3, 4]) == "A1 x A3"
    assert classify_finite(e8, []) == "trivial"
    assert classify_finite(load_diagram("B4~1"), [1, 2, 3, 4]) == "B4"
    assert classify_finite(load_diagram("C3~1"), [0, 1, 2]) == "C3"
    assert classify_finite(load_diagram("F4~1"), [1, 2, 3, 4]) == "F4"
    assert classify_finite(load_diagram("G2~1"), [1, 2]) == "G2"
    assert classify_finite(load_diagram("D5~1"), [1, 2, 3, 4, 5]) == "D5"
    assert classify_finite(load_diagram("D5~1"), [2, 3, 4, 5]) == "D4"
    assert classify_finite(load_diagram("B3~1"), [0, 2, 3]) == "B3"


def test_automorphism_counts():
    hand_counts = {
        "A1~1": 2,    # swap the doubled pair
        "A2~1": 6,    # dihedral group of the triangle
        "A6~1": 14,   # dihedral group of the 7-cycle
        "B2~1": 2, "B3~1": 2, "C3~1": 2,
        "D4~1": 24,   # permutes the four outer nodes freely
        "D5~1": 8,
        "E6~1": 6,    # permutes the three equal arms
        "E7~1": 2, "E8~1": 1, "F4~1": 1, "G2~1": 1,
        "A2~2": 1, "A5~2": 2, "D3~2": 2, "D5~2": 2, "E6~2": 1,
        # large ranks: dihedral groups of the (n+1)-cycles, D's four ends
        "A100~1": 202, "A30~1": 62, "D30~1": 8, "A30~2": 1,
        "B30~1": 2, "C30~1": 2, "A29~2": 2, "D30~2": 2,
    }
    for label, want in hand_counts.items():
        d = load_diagram(label)
        auts = diagram_automorphisms(d)
        assert len(auts) == want, label
        # each really is a Cartan-matrix symmetry
        for p in auts:
            for i in d.nodes:
                for j in d.nodes:
                    assert d.cartan[p[i]][p[j]] == d.cartan[i][j]
        # and together they form a group: closed under composition
        group = set(auts)
        for p in auts:
            for q in auts:
                assert tuple(p[q[i]] for i in d.nodes) in group, label


def test_load_rejections():
    with pytest.raises(ValueError, match="twist order 3"):
        load_diagram("D4~3")
    with pytest.raises(ValueError, match="D3~2"):
        load_diagram("A3~2")
    with pytest.raises(ValueError):
        load_diagram("H3~1")
    with pytest.raises(ValueError):
        load_diagram("E8")
    with pytest.raises(ValueError):
        load_diagram("E9~1")
    with pytest.raises(ValueError):
        load_diagram("A1~2")
    with pytest.raises(ValueError, match="unsupported untwisted diagram 'A0~1'"):
        load_diagram("A0~1")
    with pytest.raises(ValueError, match="rank 08 has a leading zero"):
        load_diagram("E08~1")


def test_components_refuse_numbers_that_are_not_nodes():
    # E8~1's nodes are 0..8: a number outside them is named, not kept as a
    # component of its own or read past the neighbour table
    d = load_diagram("E8~1")
    for nodes, bad in (([-1, 8], [-1]), ([99], [99]), ([12, 3, 9, -2], [-2, 9, 12])):
        with pytest.raises(ValueError) as info:
            components(d, nodes)
        assert str(info.value) == f"{bad} are not nodes of E8~1, whose nodes are 0..8"
    assert components(d, d.nodes) == (tuple(d.nodes),)
    assert components(d, [8, 0]) == ((0,), (8,))


def test_no_shared_memo_state():
    # no module-global memo in the library: no borelab module attribute, nor
    # any attribute of a class defined there, is an lru_cache
    for info in pkgutil.iter_modules(borelab.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"borelab.{info.name}")
        for name, value in vars(module).items():
            members = vars(value).items() if isinstance(value, type) else ()
            for attr, obj in [(name, value), *members]:
                assert not hasattr(obj, "cache_info"), f"{module.__name__}: {attr}"
    # the diagram carries no memo table in any attribute, and two loads of
    # one label are equal
    d, again = load_diagram("E8~1"), load_diagram("E8~1")
    for name, value in vars(d).items():
        assert not isinstance(value, dict), name
    assert d == again and hash(d) == hash(again)


def test_diagram_equality_reads_label_cartan_and_twist():
    d, again = load_diagram("D4~1"), load_diagram("D4~1")
    assert d is not again and d == again and hash(d) == hash(again)
    retwisted = AffineDiagram(d.label, d.cartan, 2, d.marks, d.comarks)
    assert retwisted != d and d != load_diagram("D4~2")
    assert len({d, again, retwisted}) == 2
    assert d != (d.label, d.cartan, d.twist)


def test_neighbors():
    e8 = load_diagram("E8~1")
    assert e8.neighbor_table[5] == (4, 6, 8)
    assert e8.neighbor_table[0] == (1,)
    d5 = load_diagram("D5~1")
    assert d5.neighbor_table[2] == (0, 1, 3)
