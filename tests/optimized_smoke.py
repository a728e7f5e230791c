"""Guarantees that must hold under `python -O`, which strips asserts.

Run it as `python -O tests/optimized_smoke.py` with `borelab` importable; it
exits 1 with a message at the first failure.  It uses no `assert`: every
check calls `sys.exit`, so a guarantee that rests on an assert in the
library fails here as well.

- A finite parabolic must omit a node: its counts and walks refuse all of
  E8~1's and A2~1's nodes with a ValueError.
- w0(J')*w0(J) is the walk of |Phi_J^+| - |Phi_J'^+| letters: every (J', J)
  that `GradedContext.closed_form_maxima` and `pair_minimum_words` pass to
  `roots.longest_quotient` on the two gradings below must give a word of
  that length.
- Its sizes come from the highest root: E8, G2 and C3 must read their tabled
  numbers of positive roots and Weyl group elements, and E8 and G2 their dual
  Coxeter numbers from the coroot height of theta.
- One raising closure builds a grading's roots: on E8~1{1} it must read 64
  even roots, 112 roots in S1 and 129 of odd height 2 (delta included), and
  it must refuse a grade that is 0 on every node with a ValueError, as that
  set is infinite.
- Marks and comarks rest on a certificate that raises, not on an assert: a
  disconnected matrix and a matrix of corank 2 must be refused with a
  ValueError.
- The closed-form maxima stand without an enumeration: on D30~1's adjoint
  grading and on C30~1{0,30}, `oracles.certify_maxima` must certify every
  word of `GradedContext.closed_form_maxima` a distinct maximal element of
  P, of length its closed-form dimension; D30~1 adjoint must have 30
  maxima, the largest of dimension 435, and C30~1{0,30} odd-wall tops of
  dimension 465, half of |S1|.
- So do the family minima, words the library never walks: on the same two
  gradings, `oracles.certify_word` must certify each word of
  `GradedContext.family_minima` an element of P that sends alpha to the
  wall root, of the closed-form length `GradedContext.minimum_length`.
"""

import sys

from borelab.cartan import _kernel_vector, load_diagram
from borelab.grading import context_for
import borelab.grading as grading
from borelab.roots import dominant_ascent, highest_root, longest_quotient, positive_root_count
from borelab.roots import raising_closure, theta_dual_coxeter, weyl_group_order
from borelab.weyl import pack
from oracles import certify_maxima, certify_word


def ascent(d, nodes):
    return dominant_ascent(d, nodes, d.simple_roots[0])


def longest(d, nodes):
    return longest_quotient(d, (), nodes)


quotients = []


def counted_quotient(d, inner, nodes):
    """`longest_quotient`, with an exit if its word is not |Phi_J^+| -
    |Phi_J'^+| letters long."""
    quotients.append(nodes)
    word = longest_quotient(d, inner, nodes)
    want = positive_root_count(d, nodes) - positive_root_count(d, inner)
    if len(word) != want:
        sys.exit(f"{d.label} {list(inner)} in {list(nodes)}: w0(J')w0(J) has "
                 f"{len(word)} letters, expected {want}")
    return word


for label in ("E8~1", "A2~1"):
    d = load_diagram(label)
    for f in (positive_root_count, weyl_group_order, ascent, longest):
        try:
            f(d, d.nodes)
        except ValueError:
            continue
        sys.exit(f"{label}: a finite parabolic accepted all nodes")
for label, nodes, want in (
    ("E8~1", range(1, 9), (120, 696729600)),
    ("G2~1", (1, 2), (6, 12)),
    ("C3~1", (0, 1, 2), (9, 48)),
):
    d = load_diagram(label)
    got = (positive_root_count(d, nodes), weyl_group_order(d, nodes))
    if got != want:
        sys.exit(f"{label} {list(nodes)}: sizes {got}, expected {want}")
for label, nodes, want in (("E8~1", range(1, 9), 30), ("G2~1", (1, 2), 4)):
    d = load_diagram(label)
    got = theta_dual_coxeter(d, highest_root(d, nodes))
    if got != want:
        sys.exit(f"{label} {list(nodes)}: dual Coxeter number {got}, expected {want}")
ctx = context_for("E8~1", [1])
roots = ctx.graded_roots
got = (len(ctx.even_positive_roots), len(ctx.odd_height_one_roots),
       sum(g == 2 for g in roots.values()), roots.get(ctx.delta))
if got != (64, 112, 129, 2):
    sys.exit(f"E8~1{{1}}: even, S1, odd height 2, grade of delta {got}")
try:
    raising_closure(ctx.d, (0,) * ctx.d.size, 2)
except ValueError:
    pass
else:
    sys.exit("raising_closure accepted a grade that is 0 on every node")
for name, matrix in (
    ("two A1~1 blocks", [[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]),
    ("corank 2", [[0, 0, 0], [0, 2, -1], [0, -4, 2]]),
):
    try:
        _kernel_vector(matrix)
    except ValueError:
        continue
    sys.exit(f"{name}: the kernel vector certificate accepted the matrix")
grading.longest_quotient = counted_quotient
for label, odd, adjoint in (("D30~1", [0], True), ("C30~1", [0, 30], False)):
    ctx = context_for(label, odd, adjoint)
    items = ctx.closed_form_maxima
    try:
        masks = certify_maxima(ctx, [it.word for it in items])
    except ValueError as exc:
        sys.exit(f"{label} {odd}: {exc}")
    if [m.bit_count() for m in masks] != [it.dimension for it in items]:
        sys.exit(f"{label} {odd}: a closed-form maximum's length is not its dimension")
    if adjoint:
        got = (len(items), max(it.dimension for it in items))
        if got != (30, 435):
            sys.exit(f"{label} adjoint: maxima and largest dimension {got}, expected (30, 435)")
    else:
        got = {it.dimension for it in items if it.kind == "odd"}
        if got != {465} or len(ctx.odd_height_one_roots) != 930:
            sys.exit(f"{label} {odd}: odd-wall tops of dimensions {got}, expected {{465}}")
    for a, wall in ctx.families:
        where = f"{label} {odd}: family ({a}, wall {wall.index})"
        try:
            mask, cols = certify_word(ctx, ctx.family_minima[a, wall.index])
        except ValueError as exc:
            sys.exit(f"{where}: {exc}")
        if cols[a] != pack(wall.root) or mask.bit_count() != ctx.minimum_length(wall):
            sys.exit(f"{where}: the minimum is not a member of its closed-form length")
if not quotients:
    sys.exit("no closed form walked w0(J')w0(J)")
