"""Named special cases of the adjoint grading, from tables that share no code
with the library's closed forms.

For the adjoint grading of an untwisted diagram the poset is that of the
abelian ideals of a Borel subalgebra of the finite simple Lie algebra, with
dimension equal to length.
"""

import pytest

from borelab.cartan import load_diagram
from borelab.grading import GradedContext, involution
from borelab.minuscule import enumerate_poset

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
