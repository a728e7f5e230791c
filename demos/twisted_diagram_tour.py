"""Tour of a twisted case: the order-2 folding of D5 with node 1 odd.

Twisted diagrams have k = 2, so the bounding level doubles and some wall
candidates drop out.  The poset here is small enough to print in full,
level by level.
"""

from collections import defaultdict
from functools import partial, reduce

from borelab import context_for, enumerate_poset, verify_all
from borelab.roots import norm_sq
from borelab.weyl import _right_mult_simple, identity

ctx = context_for("D5~2", [1])
print(ctx.spec.describe(), f"(k = {ctx.k})")
print()

print("odd-height-1 roots by squared length and complexity:")
groups = defaultdict(int)
for g in sorted(ctx.odd_height_one_roots):
    groups[(norm_sq(ctx.d, g), ctx.is_complex(g))] += 1
for (nrm, cx), count in sorted(groups.items()):
    tag = "complex" if cx else "noncomplex"
    print(f"  norm^2 {nrm}: {count} {tag}")
print()

for wall in ctx.walls:
    print(f"wall {wall.index} ({wall.kind}, type {wall.wall_type}): root {wall.root}, "
          f"family heads {wall.heads}, blocked {wall.blocked}")
print()

poset = enumerate_poset(ctx)
levels = defaultdict(list)
for p in range(len(poset)):
    levels[poset.length(p)].append(poset.word(p))
print(f"all {len(poset)} elements by length:")
for ln in sorted(levels):
    words = [".".join(map(str, w)) or "e" for w in levels[ln]]
    print(f"  {ln}: {'  '.join(words)}")
print()

print("family minima (words as spelled in the level listing above):")
for a, wall in ctx.families:
    m = poset.word(poset.position(ctx.family_minima[a, wall.index]))
    size = len(poset.family(a, wall))
    print(f"  (alpha{a}, wall {wall.index}): size {size}, "
          f"minimum {'.'.join(map(str, m))}")
print()

comp = ctx.components[0]
word = ctx.special_involution(comp)
step = partial(_right_mult_simple, ctx.d)  # packed columns of w*s_i from w's
s = reduce(step, word, identity(ctx.d))  # s's columns, one step per letter
# s*s is the identity iff the word walked again from s's columns ends at
# the identity's
involutive = reduce(step, word, s) == identity(ctx.d)
print(f"special involution for component {comp.nodes}: "
      f"word {'.'.join(map(str, word))}, length {len(word)}, "
      f"squares to identity: {involutive}")
print()

bad = [r for r in verify_all(poset) if not r.passed]
print("verification:", "all checks pass" if not bad else bad[0].line())
