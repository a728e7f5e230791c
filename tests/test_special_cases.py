"""Named special cases of the adjoint grading, from tables that share no code
with the library's closed forms.

For the adjoint grading of an untwisted diagram the poset is that of the
abelian ideals of a Borel subalgebra of the finite simple Lie algebra, with
dimension equal to length.  Up to rank 8 the posets are enumerated; up to
rank 30 the closed-form maxima are certified one word at a time
(`oracles.certify_maxima`), with no enumeration.
"""

import pytest

from borelab.cartan import load_diagram
from borelab.grading import GradedContext, context_for, involution
from borelab.minuscule import enumerate_poset
from oracles import certify_maxima

# Number of maximal abelian ideals = number of long simple roots (Panyushev,
# "Abelian ideals of a Borel subalgebra and long positive roots", IMRN 2003,
# no. 35).  The long simple roots are counted from the Dynkin
# diagrams in Bourbaki, "Lie Groups and Lie Algebras", ch. VI, Plates I-IX:
#   A_n, D_n, E_n  simply laced, all n simple roots long;
#   B_n            n - 1 long, one short (alpha_n);
#   C_n            one long (alpha_n), n - 1 short;
#   G_2            one long, one short;
#   F_4            two long, two short.
LONG_SIMPLE_ROOTS = {
    "A": lambda n: n,
    "B": lambda n: n - 1,
    "C": lambda n: 1,
    "D": lambda n: n,
    "E": lambda n: n,
    "G": lambda n: 1,
    "F": lambda n: 2,
}

# Maximal dimension of an abelian subalgebra, which is reached by an abelian
# ideal of a Borel subalgebra (Malcev, "Commutative subalgebras of
# semi-simple Lie algebras", Izv. Akad. Nauk SSSR Ser. Mat. 9 (1945);
# recovered in Suter, "Abelian ideals in a Borel subalgebra of a complex
# simple Lie algebra", Invent. Math. 156 (2004)):
#   A_n  floor((n + 1)^2 / 4)
#   B_n  max(n(n - 1)/2 + 1, 2n - 1)   (B_3 takes the 2n - 1 branch: 5)
#   C_n  n(n + 1)/2
#   D_n  n(n - 1)/2
#   G_2 3, F_4 9, E_6 16, E_7 27, E_8 36
MALCEV = {
    "A": lambda n: (n + 1) ** 2 // 4,
    "B": lambda n: max(n * (n - 1) // 2 + 1, 2 * n - 1),
    "C": lambda n: n * (n + 1) // 2,
    "D": lambda n: n * (n - 1) // 2,
    "G": lambda n: 3,
    "F": lambda n: 9,
    "E": lambda n: {6: 16, 7: 27, 8: 36}[n],
}

TYPES = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4",
    "D4", "D5", "G2", "F4", "E6", "E7", "E8",
]


@pytest.fixture(scope="module")
def adjoint_posets():
    out = {}
    for name in TYPES:
        d = load_diagram(f"{name}~1")
        out[name] = enumerate_poset(GradedContext(involution(d, [0], adjoint=True)))
    return out


@pytest.mark.parametrize("name", TYPES)
def test_panyushev_maxima_count(adjoint_posets, name):
    p = adjoint_posets[name]
    assert p.complete
    assert len(p.maxima) == LONG_SIMPLE_ROOTS[name[0]](int(name[1:]))


@pytest.mark.parametrize("name", TYPES)
def test_malcev_longest_length(adjoint_posets, name):
    p = adjoint_posets[name]
    assert p.complete
    assert max(map(p.length, range(len(p)))) == MALCEV[name[0]](int(name[1:]))


def certified(ctx):
    """The closed-form maxima, each word certified a distinct maximal element
    of P whose length is the item's closed-form dimension."""
    items = ctx.closed_form_maxima
    masks = certify_maxima(ctx, [it.word for it in items])
    assert [m.bit_count() for m in masks] == [it.dimension for it in items]
    return items


HIGH_RANK = ["A20", "A30", "B20", "B30", "C20", "C30", "D20", "D30", "E8", "F4", "G2"]
# (maxima, largest dimension) at rank 30, as the tables above give them
RANK_30 = {"A30": (30, 240), "B30": (29, 436), "C30": (1, 465), "D30": (30, 435)}


@pytest.mark.parametrize("name", HIGH_RANK)
def test_closed_form_adjoint_maxima(name):
    # Panyushev's count and Malcev's dimension where |P| = 2^rank is out of
    # reach: the certified maxima are distinct, so as many as the long simple
    # roots means none is missed
    items = certified(context_for(f"{name}~1", [0], adjoint=True))
    n = int(name[1:])
    got = (len(items), max(it.dimension for it in items))
    assert got == (LONG_SIMPLE_ROOTS[name[0]](n), MALCEV[name[0]](n))
    assert RANK_30.get(name, got) == got


@pytest.mark.parametrize("label,odd,half", [
    ("C30~1", [0, 30], 465),
    ("D30~1", [0, 29], 435),
    ("B25~1", [0, 1], 49),
])
def test_closed_form_hermitian_half(label, odd, half):
    # k = 1 with two odd nodes: the odd-wall tops have half the odd dimension
    ctx = context_for(label, odd)
    assert len(ctx.odd_height_one_roots) == 2 * half
    tops = [it.dimension for it in certified(ctx) if it.kind == "odd"]
    assert tops and set(tops) == {half}


def test_closed_form_twisted_maxima():
    items = certified(context_for("A41~2", [0]))
    assert [(it.kind, it.dimension) for it in items] == [("component", 210)]
