"""Walk through the largest single-node case: E8 with node 1 odd.

Builds the grading, prints the wall structure, enumerates the poset of
wall-avoiding elements, and lists the maximal elements together with the
closed-form dimensions that predict them.
"""

from borelab import context_for, enumerate_poset, maxima_parametrization, verify_all
from borelab.cartan import dual_coxeter_number
from borelab.minuscule import family_minimum

ctx = context_for("E8~1", [1])
print(ctx.spec.describe())
print(f"k = {ctx.k}, total comark sum = {dual_coxeter_number(ctx.d)}")
print(f"odd-height-1 roots: {len(ctx.odd_height_one_roots)}")
print()

print("even components and their walls:")
for comp in ctx.components:
    mark = "included" if comp.wall_included else "excluded"
    print(f"  nodes {comp.nodes}: level {comp.level}, sub dual Coxeter "
          f"{comp.sub_dual_coxeter}, wall {mark}")
for wall in ctx.walls:
    print(f"  wall {wall.index} ({wall.kind}, type {wall.wall_type}): root {wall.root}")
print()

poset = enumerate_poset(ctx)
print(f"poset size {len(poset)} with {len(poset.edges)} cover relations")
print()

print("maximal elements (all fourteen, with predicted dimensions):")
for item in maxima_parametrization(poset):
    length = poset.length(item.position)
    print(f"  {item.label:>15}  dim {item.dimension:>2}  length {length:>2}")
print()

wall2 = ctx.walls[1]
fam = poset.family(0, wall2)
w_min = family_minimum(ctx, 0, wall2)  # a reduced word
print(f"family at (node 0, wall 2): {len(fam)} elements, "
      f"minimum of length {len(w_min)}")
print(f"minimum word: {'.'.join(map(str, w_min))}")
print()

print("verification:")
for r in verify_all(poset):
    print(" ", r.line())
