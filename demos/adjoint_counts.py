"""Adjoint gradings: the poset always has exactly 2^rank elements.

For an adjoint grading (a single mark-1 node flagged odd on an untwisted
diagram) the wall-avoiding elements biject with abelian ideals of a Borel
subalgebra, and their number is 2^rank.  This script enumerates the posets,
prints the counts, and for the smallest cases cross-checks against a direct
enumeration of the ideals.
"""

import itertools

from borelab import context_for, enumerate_poset
from borelab.cartan import load_diagram
from borelab.roots import add, delta, sub, subsystem_closure

LABELS = ["A1~1", "A2~1", "B2~1", "G2~1", "A3~1", "B3~1", "C3~1", "A4~1", "D4~1"]


def ideals_by_hand(d, finite_nodes):
    """Subsets of the finite positive roots that are closed under adding
    simple roots and contain no two roots summing to a root."""
    pos = sorted(subsystem_closure(d, finite_nodes))
    simples = [tuple(1 if t == j else 0 for t in range(d.size)) for j in finite_nodes]
    count = 0
    for bits in itertools.product([0, 1], repeat=len(pos)):
        chosen = [r for r, b in zip(pos, bits) if b]
        in_set = set(chosen)
        if any(add(r, s) in pos and add(r, s) not in in_set
               for r in chosen for s in simples):
            continue
        if any(add(a, b) in pos for a, b in itertools.combinations(chosen, 2)):
            continue
        count += 1
    return count


print(f"{'diagram':>8} {'rank':>4} {'poset':>6} {'2^rank':>6}  ideal oracle")
for label in LABELS:
    d = load_diagram(label)
    node = d.marks.index(1)
    rank = d.size - 1
    poset = enumerate_poset(context_for(label, [node], adjoint=True))
    finite = [i for i in d.nodes if i != node]
    if len(subsystem_closure(d, finite)) <= 12:
        oracle = str(ideals_by_hand(d, finite))
    else:
        oracle = "(skipped)"
    print(f"{label:>8} {rank:>4} {len(poset):>6} {2 ** rank:>6}  {oracle}")

print()
print("largest ideal in G2 (inversion sets pulled back to finite roots):")
d = load_diagram("G2~1")
ctx = context_for("G2~1", [d.marks.index(1)], adjoint=True)
poset = enumerate_poset(ctx)
top = poset.masks[max(range(len(poset)), key=poset.length)]
dd = delta(d)
# the inversions: the roots of the sorted s1_order at the mask's set bits
for n in (a for bit, a in enumerate(ctx.s1_order) if top >> bit & 1):
    print(f"  {n} = delta - {sub(dd, n)}")
