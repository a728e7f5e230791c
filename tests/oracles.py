"""Independent reference implementations the tests compare the library with.

None of these is used by `borelab` itself.  `root_kind` classifies an
integer vector as a real root, an imaginary root or neither, by descent
through simple reflections; it is the reference for
`GradedContext.is_complex`, which decides whether delta + a is real by a
norm rule.  The root kernel has two references: `fraction_form`, the
invariant form summed in Fraction from the symmetrizer, where the library
reads integer Gram rows scaled by L; and
`right_mult_simple`, which rewrites every column of w*s_i as a tuple, where
the library rewrites only column i and its neighbors, each packed in one
int.  `fraction_kernel_vector` finds marks and comarks by elimination in
Fraction, where `cartan._kernel_vector` reads them in one pass over the
diagram's tree (or takes all ones on the cycle A_n~1) and certifies them, and
`fraction_symmetrizer` finds the symmetrizer by a walk over the diagram's
edges, where `cartan` reads it off the marks and comarks.
`permutation_automorphisms` tries every permutation of the nodes against the
whole Cartan matrix, where `cartan.diagram_automorphisms` places nodes along
edges and compares each edge once.  `expanded_components` grows each node's
reachable set by adding every neighbour of the whole set, read off the Cartan
matrix, until it stops growing, where `cartan.components` runs the
breadth-first walk `_breadth_first` on the neighbour lists.
`pairwise_classify_component` names a component's Cartan type from
all-pairs scans of the Cartan matrix, and `type_sizes` and
`type_dual_coxeter` look up that type's numbers of positive roots and Weyl
group elements and its dual Coxeter number in tables, where
`roots.finite_type_sizes` and `roots.theta_dual_coxeter` read them off the
component's highest root.
`scan_poset` is the poset BFS on tuple columns, all rewritten at each
step, and `tuple_family_table` reads its families off them, where
`poset.enumerate_poset` and `poset.MinusculePoset` read packed columns and
look them up as ints.  `family_indices` and `blocked_nodes` decide a wall's
family heads and blocked nodes case by case on demand, the reference for the
`Wall.heads` and `Wall.blocked` that `GradedContext._build_walls` fixes
once; `family_tops` and `crossed_pairs` do the same for the maxima index,
`Wall.tops` and `GradedContext.pairs`.  `WeylElement` is an element as a
reduced word with its packed columns, read as a matrix, an action, an
inversion set and right ascents (`identity_element`, `word_element`); it is
the reference for the library's one element form, packed columns alone: the
poset stores masks and columns, and `minuscule.check_special_involutions`
walks a word on columns and sums them for an image.
`column_bounding_equivalence` builds each element's columns again as the
wall-avoiding walk reaches it, where `minuscule.check_bounding_equivalence`
steps to the columns the poset stores.  The group product builds any
element from its matrix and the matrix of its inverse: it reads a canonical
reduced word off the inverse matrix and replays it, where the library only
extends reduced words on the right and concatenates the words of
length-additive products.  The coset trio reaches minimal
coset representatives by reflection-subgroup normalization and full group
elements, a route the library's lockstep coset walk
(`minuscule.coset_translates`) does not take.  `reflecting_coset_translates`
walks the same cosets as the library, but decides minimality by reflecting
every subgroup simple root at each ascent and keys each representative by
its inversion mask, where the library looks the new column up among the
subgroup simples and keys each representative by its translate's position
in the poset; `translation_keeps_order` compares every two translates, read
off those masks, where `check_coset_isomorphism` reads order preservation
off length additivity.  The structural trio decides
sums and decompositions with `root_kind`, where the library's mask tables
(`minuscule.structural_masks`) look them up in the grading's raising
closure; `pairwise_structural_masks` builds those tables by a dot product
and a difference for every pair of S1, where the library looks up packed
sums among the closure's roots of odd height 2 and packed differences in
S1.  `mask_verdict` decides a set by scanning each of its members against
those tables, and `per_mask_structural` runs it on every element's whole
mask, where `minuscule.check_structural` checks only the one root each
element adds to its parent's.  `graded_root_scan` finds the roots of odd height at most 2 by a
norm-bounded scan that `root_kind` classifies, where `roots.raising_closure`
raises them by the string rule, and `reflection_closure` reflects a finite
subsystem's simple roots, where `roots.subsystem_closure` raises them.
`abelian_subspace_masks` finds the b0-stable abelian subspaces of the odd
part by a search over subsets of S1 that decides sums and steps with
`root_kind`, after a norm test in `integer_gram`, the Gram matrix from
`fraction_symmetrizer`; the library only enumerates the poset and checks
each inversion set.  `probed_family_completeness` probes every wall and
node, where `minuscule.check_family_completeness` reads the family
index's keys.  The orbit search
`minimal_mapper` finds a shortest element sending one root to another by
BFS over the orbit; the library reaches the same elements by dominant
ascent (`weyl.dominant_mapper`) and, for the type-2 special involution, by
the closed form w0(J')*w0(J) (`GradedContext.special_involution`).
`reflecting_ascent` walks the dominant ascent by summing every pairing
again at each step, where `roots.dominant_ascent` carries the row of
pairings along.  `longest_element` and `column_quotient` reach w0(J) and
w0(J')*w0(J) by ascent on packed columns from the identity and from
w0(J'), where `roots.longest_quotient` walks a weight's row of pairings.
`maximal_by_sets` finds a family's top by comparing the inversion sets of
every two members, where the grading builds the top in closed form
(`GradedContext.closed_form_maxima`) and the poset places its word.  `certify_word` and
`certify_maxima` certify closed-form words with no poset at all, from their
columns alone, at ranks the enumeration cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, floor, gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from borelab.cartan import AffineDiagram, components, finite_nodes
from borelab.grading import GradedContext, Wall
from borelab.minuscule import CheckResult, _verdict, structural_masks
from borelab.poset import MinusculePoset
from borelab.roots import (
    Root,
    add,
    coroot_pair,
    is_long,
    neg,
    pair,
    scale,
    simple_root,
    sub,
)
from borelab.weyl import _right_mult_simple, identity, pack, unpack

Cols = tuple[Root, ...]


def _apply_cols(mat: Cols, a: Root) -> Root:
    n = len(a)
    out = [0] * n
    for j, c in enumerate(a):
        if c:
            col = mat[j]
            for t in range(n):
                out[t] += c * col[t]
    return tuple(out)


class WeylElement:
    """Group element: its packed columns and a reduced word, with its matrix,
    action, inversion set and right ascents read off them."""

    __slots__ = ("d", "word", "cols")

    def __init__(self, d: AffineDiagram, word: tuple[int, ...], cols: tuple[int, ...]):
        self.d = d
        self.word = word
        self.cols = cols

    @property
    def mat(self) -> Cols:
        """The action matrix decoded: column i is w(alpha_i) as a tuple."""
        n = self.d.size
        return tuple(unpack(c, n) for c in self.cols)

    @property
    def inversions(self) -> frozenset[Root]:
        """{gamma > 0 : w^{-1}(gamma) < 0}: each letter's simple root under
        the prefix of the reduced word before it."""
        out = []
        cols = identity(self.d)
        for i in self.word:
            out.append(cols[i])
            cols = _right_mult_simple(self.d, cols, i)
        return frozenset(unpack(c, self.d.size) for c in out)

    @property
    def length(self) -> int:
        return len(self.word)

    def apply(self, a: Root) -> Root:
        return _apply_cols(self.mat, a)

    def extend(self, i: int) -> Optional["WeylElement"]:
        """w*s_i if that is longer (image of alpha_i positive), else None."""
        if self.cols[i] < 0:
            return None
        return WeylElement(self.d, self.word + (i,), _right_mult_simple(self.d, self.cols, i))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<w {'.'.join(map(str, self.word)) or 'e'}>"


def identity_element(d: AffineDiagram) -> WeylElement:
    return WeylElement(d, (), identity(d))


def word_element(d: AffineDiagram, word: Iterable[int]) -> WeylElement:
    """Element of a word that the caller knows to be reduced (checked)."""
    letters, cols = [], identity(d)
    for i in word:
        letters.append(i)
        if cols[i] < 0:
            raise RuntimeError(f"word {tuple(letters)} is not reduced")
        cols = _right_mult_simple(d, cols, i)
    return WeylElement(d, tuple(letters), cols)


def ht(a: Root) -> int:
    return sum(a)


def ht_subset(a: Root, nodes: Iterable[int]) -> int:
    return sum(a[i] for i in nodes)


def ht_odd(ctx: GradedContext, a: Root) -> int:
    """Coefficient sum over the odd nodes."""
    return ht_subset(a, ctx.odd)


def is_positive(a: Root) -> bool:
    return any(a) and min(a) >= 0


def is_negative(a: Root) -> bool:
    return any(a) and max(a) <= 0


def reflect_simple(d: AffineDiagram, a: Root, i: int) -> Root:
    """s_i(a) on a root tuple; the library steps packed columns instead."""
    c = pair(d, a, i)
    if c == 0:
        return a
    b = list(a)
    b[i] -= c
    return tuple(b)


@lru_cache(maxsize=None)
def root_kind(d: AffineDiagram, a: Root) -> str:
    """Classify an integer vector: "real", "imaginary", or "none".

    Real roots are detected by reflecting toward lower height, always through
    the node of largest positive coroot pairing.  A vector with coordinates of
    both signs is never a root.
    """
    return _root_kind_uncached(d, a)


def _root_kind_uncached(d: AffineDiagram, a: Root) -> str:
    if not any(a):
        return "none"
    # imaginary roots are exactly the nonzero integer multiples of delta
    i0 = next(i for i, x in enumerate(a) if x)
    q, r = divmod(a[i0], d.marks[i0])
    if r == 0 and q != 0 and a == scale(q, d.marks):
        return "imaginary"
    if is_negative(a):
        a = neg(a)
    if not is_positive(a):
        return "none"
    budget = 4 * ht(a) + 4
    while budget > 0:
        budget -= 1
        if ht(a) == 1:
            return "real"
        best, best_i = 0, -1
        for i in d.nodes:
            c = pair(d, a, i)
            if c > best:
                best, best_i = c, i
        if best_i < 0:
            return "none"
        a = reflect_simple(d, a, best_i)
        if not is_positive(a):
            return "none"
    return "none"


def is_real_root(d: AffineDiagram, a: Root) -> bool:
    return root_kind(d, a) == "real"


def graded_root_scan(ctx: GradedContext, top: int = 2) -> dict[Root, int]:
    """Every positive root of odd height at most `top`, real or imaginary,
    mapped to its odd height: the vectors a >= 0 of odd height <= top with
    (a, a) at most the largest simple norm, each kept if `root_kind` calls
    it a root (a real root is conjugate to a simple one, an imaginary root
    is isotropic).

    The box holding them is scanned coordinate by coordinate (Fincke and
    Pohst, Math. Comp. 44 (1985) 463-471).  With the odd nodes ordered
    last, the Gram matrix is L D L^T, L unit lower triangular, and
    (a, a) = sum of D_i * (a_i + sum_{j > i} L_ji a_j)^2.  The form is
    definite on every proper node subset, so only the last pivot D is 0,
    at an odd node whose range the odd height bounds; every other
    coordinate is fixed, last first, within the interval its term leaves.
    """
    d, flags = ctx.d, ctx.spec.flags
    order = [*ctx.even, *ctx.odd]
    n = len(order)
    gram = [[fraction_form(d, simple_root(d, i), simple_root(d, j)) for j in order]
            for i in order]
    low = [[Fraction(0)] * n for _ in range(n)]
    piv = []
    for j in range(n):
        piv.append(gram[j][j] - sum(low[j][t] ** 2 * piv[t] for t in range(j)))
        for i in range(j + 1, n):
            dot = sum(low[i][t] * low[j][t] * piv[t] for t in range(j))
            low[i][j] = (gram[i][j] - dot) / piv[j]
    # in floats, with a slack far above their rounding: a vector the slack
    # lets in is dropped by `root_kind`, and no root is left out
    above = [[(j, float(low[j][i])) for j in range(i + 1, n) if low[j][i]] for i in range(n)]
    piv = list(map(float, piv))
    vec = [0] * n
    found = {}

    def scan(i: int, budget: float, grade: int) -> None:
        if i < 0:
            a = [0] * d.size
            for t, y in zip(order, vec):
                a[t] = y
            a = tuple(a)
            if any(a) and root_kind(d, a) != "none":
                found[a] = grade
            return
        centre = -sum(c * vec[j] for j, c in above[i])
        cap = top - grade if flags[order[i]] else None
        start = max(0, floor(centre))
        if cap is not None:
            start = min(start, cap)
        for y, step in ((start, -1), (start + 1, 1)):
            while y >= 0 and (cap is None or y <= cap):
                term = piv[i] * (y - centre) ** 2
                if term > budget:
                    break
                vec[i] = y
                scan(i - 1, budget - term, grade + flags[order[i]] * y)
                y += step
        vec[i] = 0

    scan(n - 1, float(max(gram[i][i] for i in range(n))) + 1e-6, 0)
    return found


def reflection_closure(d: AffineDiagram, nodes: Iterable[int]) -> frozenset[Root]:
    """Positive roots of the finite subsystem on a proper node subset: the
    simple roots reflected by every simple reflection of the subset until no
    new positive root appears, where `roots.subsystem_closure` raises them
    by the string rule."""
    s = sorted(set(nodes))
    roots = {simple_root(d, i) for i in s}
    frontier = set(roots)
    while frontier:
        new = set()
        for a in frontier:
            for i in s:
                b = reflect_simple(d, a, i)
                if is_positive(b) and b not in roots:
                    roots.add(b)
                    new.add(b)
        frontier = new
    return frozenset(roots)


def fraction_form(d: AffineDiagram, a: Root, b: Root) -> Fraction:
    """(a, b) = sum of a_i * d_i * <b, alpha_i^vee>, in Fraction."""
    total = Fraction(0)
    for i in range(d.size):
        if a[i]:
            total += a[i] * d.symmetrizer[i] * sum(
                d.cartan[i][j] * b[j] for j in range(d.size))
    return total


def _identity_cols(d: AffineDiagram) -> Cols:
    return tuple(tuple(1 if i == j else 0 for j in range(d.size)) for i in range(d.size))


def right_mult_simple(d: AffineDiagram, mat: Cols, i: int) -> Cols:
    """Matrix of w*s_i from that of w, every column rewritten:
    w*s_i(alpha_j) = w(alpha_j) - A[i][j]*w(alpha_i)."""
    row = d.cartan[i]
    col_i = mat[i]
    return tuple(
        tuple(-x for x in col) if j == i
        else tuple(x - row[j] * y for x, y in zip(col, col_i))
        for j, col in enumerate(mat)
    )


def fraction_kernel_vector(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Primitive positive integer kernel vector of a corank-1 square matrix,
    by Gauss-Jordan elimination in Fraction."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivots.append(c)
        pivot = rows[r][c]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == n:
            break
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise ValueError(f"matrix has corank {len(free)}, expected 1")
    f = free[0]
    sol = [Fraction(0)] * n
    sol[f] = Fraction(1)
    for row, c in zip(rows, pivots):
        sol[c] = -row[f]
    denom = lcm(*(x.denominator for x in sol))
    ints = [int(x * denom) for x in sol]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if any(x < 0 for x in ints):
        ints = [-x for x in ints]
    if any(x <= 0 for x in ints):
        raise ValueError("kernel vector is not strictly positive")
    return tuple(ints)


def fraction_symmetrizer(cartan: Sequence[Sequence[int]]) -> tuple[Fraction, ...]:
    """d_i with d_i * A[i][j] = d_j * A[j][i], normalized so max(d_i) = 1."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0:
                dj = d[i] * Fraction(cartan[i][j], cartan[j][i])
                if d[j] is None:
                    d[j] = dj
                    stack.append(j)
                elif d[j] != dj:
                    raise ValueError("Cartan matrix is not symmetrizable")
    if any(x is None for x in d):
        raise ValueError("diagram is not connected")
    top = max(d)  # type: ignore[type-var]
    return tuple(x / top for x in d)  # type: ignore[operator]


def permutation_automorphisms(d: AffineDiagram) -> tuple[tuple[int, ...], ...]:
    """Every node permutation pi with A[pi(i)][pi(j)] = A[i][j] for all i and
    j, in lexicographic order, found by trying all of them."""
    a = d.cartan
    return tuple(
        p for p in permutations(d.nodes)
        if all(a[p[i]][p[j]] == a[i][j] for i in d.nodes for j in d.nodes)
    )


def expanded_components(d: AffineDiagram, nodes: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Components of the subdiagram induced on `nodes`, each sorted, ordered by
    least node: a node's reachable set grows by every node of `nodes` adjacent
    to it (A[k][j] != 0) until the set stops growing."""
    s = set(nodes)
    adj = {k: {j for j, x in enumerate(d.cartan[k]) if x and j != k} & s for k in s}
    found: set[tuple[int, ...]] = set()
    reached: set[int] = set()
    for i in s:
        if i not in reached:  # a reached node's set is the one that reached it
            r = {i}
            while len(grown := r.union(*(adj[k] for k in r))) > len(r):
                r = grown
            reached |= r
            found.add(tuple(sorted(r)))
    return tuple(sorted(found))


@dataclass
class TuplePoset:
    """What `scan_poset` finds: each element's word and tuple matrix."""

    words: list[tuple[int, ...]]
    mats: list[Cols]
    masks: list[int]
    edges: list[tuple[int, int]]
    by_mask: dict[int, int]
    complete: bool


def scan_poset(ctx: GradedContext, max_length: Optional[int] = None) -> TuplePoset:
    """The poset BFS on tuple columns, level by level in node order,
    looking up every column of every frontier element in S1."""
    d = ctx.d
    bits = {a: 1 << n for n, a in enumerate(ctx.s1_order)}
    nodes = range(d.size)
    cap = len(bits) if max_length is None else min(max_length, len(bits))
    words: list[tuple[int, ...]] = [()]
    mats = [_identity_cols(d)]
    masks = [0]
    by_mask = {0: 0}
    edges: list[tuple[int, int]] = []
    frontier = [0]
    truncated = False
    depth = 0
    while frontier:
        if depth == cap:
            truncated = any(mats[p][i] in bits for p in frontier for i in nodes)
            break
        depth += 1
        new_frontier: list[int] = []
        for src in frontier:
            mat, mask = mats[src], masks[src]
            for i in nodes:
                b = bits.get(mat[i])
                if b is None:
                    continue
                if mask & b:
                    raise RuntimeError(f"column {mat[i]} is already an inversion of {words[src]}")
                key = mask | b
                tgt = by_mask.get(key)
                if tgt is None:
                    tgt = by_mask[key] = len(mats)
                    words.append(words[src] + (i,))
                    mats.append(right_mult_simple(d, mat, i))
                    masks.append(key)
                    new_frontier.append(tgt)
                edges.append((src, tgt))
        frontier = new_frontier
    return TuplePoset(words, mats, masks, edges, by_mask, not truncated)


def tuple_family_table(
    ctx: GradedContext, mats: Sequence[Cols]
) -> dict[tuple[int, int], tuple[int, ...]]:
    """(alpha, wall index) -> positions of the matrices whose column alpha
    is that wall's root, in order."""
    table: dict[tuple[int, int], list[int]] = {}
    for pos, mat in enumerate(mats):
        for a, col in enumerate(mat):
            for wall in ctx.walls:
                if col == wall.root:
                    table.setdefault((a, wall.index), []).append(pos)
    return {k: tuple(v) for k, v in table.items()}


def family_indices(ctx: GradedContext, wall: Wall) -> tuple[int, ...]:
    """Simple nodes heading a nonempty family at this wall."""
    d = ctx.d
    if wall.kind == "odd":
        if len(ctx.odd) == 1:
            return tuple(ctx.odd)
        return tuple(i for i in ctx.odd if i != wall.node)
    comp = wall.component
    assert comp is not None
    if wall.wall_type == 1:
        return tuple(i for i in comp.region if is_long(d, simple_root(d, i)))
    return tuple(i for i in comp.nodes if is_long(d, simple_root(d, i), comp.nodes))


def type_one_nodes(ctx: GradedContext, nodes: Iterable[int]) -> tuple[int, ...]:
    """Members of a node set whose simple root is long and stays real when
    shifted by delta (type 1)."""
    return tuple(
        i for i in nodes if ctx.root_type(simple_root(ctx.d, i)) == 1
    )


def family_tops(ctx: GradedContext, wall: Wall) -> tuple[int, ...]:
    """Nodes whose family top at this wall is a maximal element: the type-1
    region nodes inside the component for a type-1 component wall, the
    family heads otherwise."""
    if wall.kind == "component" and wall.wall_type == 1:
        return type_one_nodes(ctx, wall.component.region_in_component)
    return family_indices(ctx, wall)


def crossed_pairs(ctx: GradedContext) -> list[tuple[int, int, Wall, Wall]]:
    """(x, y, wa, wb) for each pair wa < wb of type-1 component walls, x a
    type-1 node of wa's component and y one of wb's."""
    out = []
    component_walls = [w for w in ctx.walls if w.kind == "component"]
    for ia in range(len(component_walls)):
        for ib in range(ia + 1, len(component_walls)):
            wa, wb = component_walls[ia], component_walls[ib]
            if wa.wall_type != 1 or wb.wall_type != 1:
                continue
            ca, cb = wa.component, wb.component
            assert ca is not None and cb is not None
            for x in type_one_nodes(ctx, ca.nodes):
                for y in type_one_nodes(ctx, cb.nodes):
                    out.append((x, y, wa, wb))
    return out


def blocked_nodes(ctx: GradedContext, wall: Wall) -> tuple[int, ...]:
    """Nodes whose reflections are excluded from family stabilizers at
    this wall: the simples pairing by 1 with the component's highest
    coroot for a type-1 wall, all odd nodes for a type-2 wall, and the
    defining odd node itself for an odd wall."""
    if wall.kind == "odd":
        assert wall.node is not None
        return (wall.node,)
    comp = wall.component
    assert comp is not None
    if wall.wall_type == 1:
        return tuple(i for i in ctx.d.nodes if comp.pairing_row[i] == 1)
    return ctx.odd


def word_matrix(d: AffineDiagram, word: Iterable[int]) -> Cols:
    """Matrix of the product of the simple reflections in word."""
    mat = _identity_cols(d)
    for i in word:
        mat = right_mult_simple(d, mat, i)
    return mat


def inverse_matrix(w: WeylElement) -> Cols:
    """Matrix of w^{-1}, from the reversed word."""
    return word_matrix(w.d, reversed(w.word))


def apply_inverse(w: WeylElement, a: Root) -> Root:
    return _apply_cols(inverse_matrix(w), a)


def _canonical_word(d: AffineDiagram, inv: Cols) -> tuple[int, ...]:
    """Reduced word by repeatedly stripping the smallest left descent."""
    word = []
    for _ in range(100_000):
        i = next((i for i in d.nodes if is_negative(inv[i])), None)
        if i is None:
            return tuple(word)
        word.append(i)
        inv = right_mult_simple(d, inv, i)
    raise RuntimeError("word extraction did not terminate")


def _from_mats(d: AffineDiagram, mat: Cols, inv: Cols) -> WeylElement:
    """Element with given matrices; the word is recomputed and replayed."""
    word = _canonical_word(d, inv)
    replay = _identity_cols(d)
    for i in word:
        if not is_positive(replay[i]):
            raise RuntimeError("canonical word was not reduced")
        replay = right_mult_simple(d, replay, i)
    if replay != mat:
        raise RuntimeError("matrix does not define a group element")
    return WeylElement(d, word, tuple(map(pack, mat)))


def from_word(d: AffineDiagram, word: Iterable[int]) -> WeylElement:
    """Product of simple reflections; the word need not be reduced."""
    word = tuple(word)
    return _from_mats(d, word_matrix(d, word), word_matrix(d, reversed(word)))


def product(u: WeylElement, *rest: WeylElement) -> WeylElement:
    """u*v*..., from the matrices of the factors and of their inverses."""
    mat, inv = u.mat, inverse_matrix(u)
    for v in rest:
        v_inv = inverse_matrix(v)
        mat = tuple(_apply_cols(mat, c) for c in v.mat)
        inv = tuple(_apply_cols(v_inv, c) for c in inv)
    return _from_mats(u.d, mat, inv)


def inverse(w: WeylElement) -> WeylElement:
    return _from_mats(w.d, inverse_matrix(w), w.mat)


def _left_mult_reflection(
    d: AffineDiagram, beta: Root, mat: Cols, inv: Cols
) -> tuple[Cols, Cols]:
    """Matrices of s_beta*w from those of w, for a real root beta."""
    row = tuple(coroot_pair(d, beta, simple_root(d, j)) for j in d.nodes)
    new_mat = []
    for col in mat:
        c = sum(r * x for r, x in zip(row, col))
        new_mat.append(tuple(x - c * y for x, y in zip(col, beta)) if c else col)
    inv_beta = _apply_cols(inv, beta)
    new_inv = []
    for j in range(len(inv)):
        c = row[j]
        new_inv.append(tuple(x - c * y for x, y in zip(inv[j], inv_beta)) if c else inv[j])
    return tuple(new_mat), tuple(new_inv)


def from_reflection(d: AffineDiagram, beta: Root) -> WeylElement:
    """The reflection in a real root beta."""
    if root_kind(d, beta) != "real":
        raise ValueError(f"{beta} is not a real root")
    cols = _identity_cols(d)
    return _from_mats(d, *_left_mult_reflection(d, beta, cols, cols))


def pairwise_classify_component(d: AffineDiagram, comp: tuple[int, ...]) -> str:
    """Cartan type of a connected node set, by all-pairs scans of the Cartan
    matrix for its bonds and its nodes' degrees."""
    n = len(comp)
    if n == 1:
        return "A1"
    mult = {}
    for a in comp:
        for b in comp:
            if a < b and d.cartan[a][b] != 0:
                mult[(a, b)] = d.cartan[a][b] * d.cartan[b][a]
    if any(m == 3 for m in mult.values()):
        return "G2"
    norms = {i: d.gram[i][i] for i in comp}
    top = max(norms.values())
    shorts = sum(1 for v in norms.values() if v < top)
    if any(m == 2 for m in mult.values()):
        if n == 2:
            return "B2"
        if n == 4 and shorts == 2:
            return "F4"
        if shorts == 1:
            return f"B{n}"
        if shorts == n - 1:
            return f"C{n}"
        raise ValueError(f"unrecognized multiply-laced component {comp}")

    def bonded(i: int) -> list[int]:
        return [j for j in comp if j != i and d.cartan[i][j] != 0]

    branch = [i for i in comp if len(bonded(i)) == 3]
    if not branch:
        return f"A{n}"
    if len(branch) != 1:
        raise ValueError(f"unrecognized branched component {comp}")
    b = branch[0]
    arms = []
    for j in bonded(b):
        length, prev, cur = 1, b, j
        while True:
            nxt = [x for x in bonded(cur) if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return f"D{n}"
    if arms == [1, 2, 2]:
        return "E6"
    if arms == [1, 2, 3]:
        return "E7"
    if arms == [1, 2, 4]:
        return "E8"
    raise ValueError(f"unrecognized branched component {comp}")


# (number of positive roots, Weyl group order) of the exceptional types; the
# classical ones follow the rank formulas in `type_sizes`.
_EXCEPTIONAL_SIZES = {
    "G2": (6, 12),
    "F4": (24, 1152),
    "E6": (36, 51840),
    "E7": (63, 2903040),
    "E8": (120, 696729600),
}


def type_sizes(name: str) -> tuple[int, int]:
    """(|positive roots|, |Weyl group|) of an irreducible finite type, e.g. "B3"."""
    if name in _EXCEPTIONAL_SIZES:
        return _EXCEPTIONAL_SIZES[name]
    n = int(name[1:])
    if name[0] == "A":
        return n * (n + 1) // 2, factorial(n + 1)
    if name[0] in "BC":
        return n * n, 2**n * factorial(n)
    if name[0] == "D":
        return n * (n - 1), 2 ** (n - 1) * factorial(n)
    raise ValueError(f"unknown finite type {name!r}")


_EXCEPTIONAL_DUAL_COXETER = {"G2": 4, "F4": 9, "E6": 12, "E7": 18, "E8": 30}


def type_dual_coxeter(name: str) -> int:
    """Dual Coxeter number of an irreducible finite type, e.g. "B3"."""
    if name in _EXCEPTIONAL_DUAL_COXETER:
        return _EXCEPTIONAL_DUAL_COXETER[name]
    n = int(name[1:])
    return {"A": n + 1, "B": 2 * n - 1, "C": n + 1, "D": 2 * n - 2}[name[0]]


def classify_finite(d: AffineDiagram, nodes: Iterable[int]) -> str:
    """Cartan type of the finite subsystem on `nodes`, e.g. "A2 x B3".

    Components are labeled in order of least node.  An empty set is "trivial".
    """
    comps = components(d, tuple(nodes))
    if not comps:
        return "trivial"
    return " x ".join(pairwise_classify_component(d, c) for c in comps)


def minimal_coset_rep(
    d: AffineDiagram, g: WeylElement, subgroup_roots: Sequence[Root]
) -> WeylElement:
    """Minimal element of W'g, W' the reflection subgroup on the given simples.

    Valid whenever subgroup_roots is a canonical simple system (pairwise
    non-positive inner products); repeatedly strips reflections s_beta with
    g^{-1}(beta) < 0, which always shortens g.
    """
    mat, inv = _normalize_mats(d, g.mat, inverse_matrix(g), subgroup_roots)
    if mat == g.mat:
        return g
    return _from_mats(d, mat, inv)


def _normalize_mats(
    d: AffineDiagram, mat: Cols, inv: Cols, subgroup_roots: Sequence[Root]
) -> tuple[Cols, Cols]:
    changed = True
    while changed:
        changed = False
        for beta in subgroup_roots:
            if is_negative(_apply_cols(inv, beta)):
                mat, inv = _left_mult_reflection(d, beta, mat, inv)
                changed = True
    return mat, inv


def coset_poset(
    d: AffineDiagram, ambient_nodes: Iterable[int], subgroup_roots: Sequence[Root]
) -> list[WeylElement]:
    """Minimal coset representatives of W'\\W(ambient), in BFS order.

    W(ambient) is the standard parabolic on ambient_nodes; W' is the reflection
    subgroup with canonical simple system subgroup_roots (a subset of the
    positive roots on ambient_nodes).
    """
    ambient = sorted(set(ambient_nodes))
    start = identity_element(d)
    reps = [start]
    seen = {start.mat}
    queue = [(start.mat, start.mat)]  # (matrix, inverse matrix)
    while queue:
        nxt = []
        for u_mat, u_inv in queue:
            for i in ambient:
                mat = right_mult_simple(d, u_mat, i)
                inv = tuple(reflect_simple(d, c, i) for c in u_inv)
                mat, inv = _normalize_mats(d, mat, inv, subgroup_roots)
                if mat not in seen:
                    seen.add(mat)
                    reps.append(_from_mats(d, mat, inv))
                    nxt.append((mat, inv))
        queue = nxt
    return reps


def reflecting_coset_translates(
    poset,
    start: Optional[int],
    ambient: Iterable[int],
    subgroup: Sequence[Root],
) -> tuple[dict[int, int], list[tuple[int, Optional[int]]]]:
    """The minimal representatives u of W'\\W(ambient), each with the
    position of its translate m*u, where m is the element at `start`.

    W' is the reflection subgroup on the simple system `subgroup`.  Its
    minimal representatives are closed under prefixes in the right weak
    order, so they grow from the identity by u -> u*s_i, kept when
    u(alpha_i) > 0 (ascent) and s_i(u^{-1} beta) > 0 for every subgroup
    simple beta (minimality).  A representative is its inversion mask over
    the ambient positive roots; the returned index gives each packed root's
    bit.
    m*u*s_i is m*u stepped through node i (`MinusculePoset.step`); its
    position is None when that column is outside S1 or the mask is not in
    the poset, and so is every translate grown from it.
    """
    d = poset.ctx.d
    index: dict[int, int] = {}
    reps: list[tuple[int, Optional[int]]] = [(0, start)]
    seen = {0}
    frontier = [(identity(d), tuple(subgroup), 0, start)]
    while frontier:
        nxt = []
        for u, pulled, mask, img in frontier:
            for i in ambient:
                col = u[i]
                if col < 0:
                    continue
                key = mask | index.setdefault(col, 1 << len(index))
                if key in seen:  # kept or rejected already
                    continue
                seen.add(key)
                moved = tuple(reflect_simple(d, beta, i) for beta in pulled)
                if not all(map(is_positive, moved)):
                    continue
                tgt = None if img is None else poset.step(img, i)
                reps.append((key, tgt))
                nxt.append((_right_mult_simple(d, u, i), moved, key, tgt))
        frontier = nxt
    return index, reps


def translation_keeps_order(masks: Sequence[int], reps: Sequence[tuple[int, int]]) -> bool:
    """Whether u <= v iff m*u <= m*v for every two representatives, each a
    pair (inversion mask of u, position of m*u) read against the poset's
    `masks`: every pair compared."""
    pairs = [(r, masks[img]) for r, img in reps]
    return not any((r & ~s == 0) != (x & ~y == 0) for r, x in pairs for s, y in pairs)


def is_biconvex(
    d: AffineDiagram,
    roots_in: Iterable[Root],
    candidates: Optional[Iterable[Root]] = None,
) -> bool:
    """Closed under root addition, and co-closed against decompositions.

    For the co-closure direction, `candidates` must contain every positive
    real root that can appear as a summand of an element of the set; it
    defaults to the set itself, which only checks internal decompositions.
    """
    family = list(roots_in)
    members = set(family)
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            total = tuple(x + y for x, y in zip(a, b))
            kind = root_kind(d, total)
            if kind == "imaginary":
                return False
            if kind == "real" and total not in members:
                return False
    pool = list(candidates) if candidates is not None else family
    for g in family:
        for a in pool:
            if a == g or a in members:
                continue
            b = tuple(x - y for x, y in zip(g, a))
            if not is_positive(b):
                continue
            if root_kind(d, b) != "real":
                continue
            if b not in members:
                return False
    return True


def summands(ctx: GradedContext) -> tuple[Root, ...]:
    """Positive roots that can be a summand of an odd-height-1 root: the
    even positive roots and the odd-height-1 roots themselves."""
    return tuple(ctx.even_positive_roots | ctx.odd_height_one_roots)


def decompositions(ctx: GradedContext) -> dict[Root, tuple[tuple[Root, Root], ...]]:
    """For each odd-height-1 root g, every (a, g - a) with a a summand other
    than g and g - a a positive real root."""
    pool = summands(ctx)
    out = {}
    for g in ctx.s1_order:
        pairs = []
        for a in pool:
            b = sub(g, a)
            if a != g and is_positive(b) and root_kind(ctx.d, b) == "real":
                pairs.append((a, b))
        out[g] = tuple(pairs)
    return out


def structural_verdict(
    ctx: GradedContext, inv: Iterable[Root], table: dict[Root, tuple[tuple[Root, Root], ...]]
) -> tuple[bool, bool]:
    """(no two members sum to a root, the set is biconvex) for a set in S1.

    One pass over the pairs answers the sum test and the closure half of
    biconvexity; the co-closure half reads each member's decompositions
    from `table`, the grading's `decompositions`.
    """
    members = set(inv)
    family = list(members)
    sum_free = closed = True
    for i, x in enumerate(family):
        for y in family[i + 1 :]:
            total = add(x, y)
            kind = root_kind(ctx.d, total)
            if kind == "none":
                continue
            sum_free = False
            if kind == "imaginary" or total not in members:
                closed = False
                break
        if not closed:
            break
    biconvex = closed and all(
        a in members or b in members for g in family for a, b in table[g]
    )
    return sum_free, biconvex


def pairwise_structural_masks(ctx: GradedContext) -> tuple[list[int], list[int]]:
    """`minuscule.structural_masks` read off every pair x, y of S1.

    y - x is looked up among plus and minus the even positive roots, and
    c = <y, x^vee>, x the longer root, from the integer Gram rows: c < 0
    gives a root, c = 0 a root iff y - x is one, c = 1 a root iff y - x is
    one and 2x - y is in S1 (Humphreys, Lie Algebras, 9.4)."""
    d, order, s1 = ctx.d, ctx.s1_order, ctx.odd_height_one_roots
    rise = ctx.even_positive_roots
    steps = rise | {neg(e) for e in rise}
    # L * (y, x) is the dot product of y with weight[n], x = order[n]
    weight = [tuple(sum(map(mul, row, x)) for row in d.gram) for x in order]
    norm = [sum(map(mul, x, w)) for x, w in zip(order, weight)]
    partner = [0] * len(order)
    down = [0] * len(order)
    for n, x in enumerate(order):
        for m in range(n + 1, len(order)):
            y = order[m]
            diff = sub(y, x)
            step = diff in steps
            if step:
                if diff in rise:
                    down[m] |= 1 << n
                else:
                    down[n] |= 1 << m
            long, short, ln = (x, y, n) if norm[n] >= norm[m] else (y, x, m)
            c = 2 * sum(map(mul, short, weight[ln])) // norm[ln]
            if c == 1:
                twice = tuple(2 * a - b for a, b in zip(long, short))
                root = step and twice in s1
            else:
                root = c < 0 or step
            if root:
                partner[n] |= 1 << m
                partner[m] |= 1 << n
    return partner, down


def mask_verdict(partner: list[int], down: list[int], mask: int) -> tuple[bool, bool]:
    """(no two members sum to a root, the set is biconvex) for a set in S1.
    A sum of two members has odd height 2, so it is never a member: a
    sum-free set is closed, and it is biconvex iff it is co-closed."""
    members = [n for n in range(mask.bit_length()) if mask >> n & 1]
    sum_free = not any(partner[n] & mask for n in members)
    return sum_free, sum_free and not any(down[n] & ~mask for n in members)


def per_mask_structural(poset: MinusculePoset) -> CheckResult:
    """`minuscule.check_structural` by `mask_verdict` on every element's
    whole mask, each problem collected and the first reported."""
    partner, down = structural_masks(poset.ctx)
    problems = []
    for p, mask in enumerate(poset.masks):
        sum_free, biconvex = mask_verdict(partner, down, mask)
        if not sum_free:
            problems.append(f"element {p}: inversions sum to a root")
        if not biconvex:
            problems.append(f"element {p}: inversion set not biconvex")
    return _verdict("structural", problems, "all inversion sets biconvex and sum-free")


def integer_gram(d: AffineDiagram) -> tuple[tuple[int, ...], ...]:
    """The invariant form on the simple roots in integers, from the
    Fraction symmetrizer: L * d_i * A[i][j], L its least common denominator.
    A real root's norm is then a diagonal entry, an imaginary root's 0."""
    sym = fraction_symmetrizer(d.cartan)
    scale_ = lcm(*(x.denominator for x in sym))
    return tuple(tuple(int(x * scale_) * a for a in row) for x, row in zip(sym, d.cartan))


def abelian_subspace_masks(ctx: GradedContext, gram: Sequence[Sequence[int]]) -> set[int]:
    """The b0-stable abelian subspaces of the odd part, as masks over
    `ctx.s1_order`: every subset of S1 that is sum-free and closed under
    `below`, found by search.

    For x in S1, `clash[x]` holds the y in S1 (x itself included) with
    x + y a root, real or imaginary: `root_kind` decides the sums whose norm
    in `gram`, the diagram's `integer_gram`, is 0 or a real root's.
    `below[x]` holds the roots of S1 reached from x by subtracting even
    simple roots one at a time, each step landing on a root of either kind.
    No table of the library is read.  Each
    such set less a member that is no other's `below` is another, so they
    all grow from the empty set a member at a time."""
    d, order = ctx.d, ctx.s1_order
    bit = {x: 1 << n for n, x in enumerate(order)}
    weight = [tuple(sum(map(mul, row, x)) for row in gram) for x in order]
    norm = [sum(map(mul, x, w)) for x, w in zip(order, weight)]
    allowed = {0, *(gram[i][i] for i in d.nodes)}
    clash = [0] * len(order)
    for n, x in enumerate(order):
        for m in range(n, len(order)):
            y = order[m]
            if (norm[n] + norm[m] + 2 * sum(map(mul, y, weight[n])) in allowed
                    and root_kind(d, add(x, y)) != "none"):
                clash[n] |= 1 << m
                clash[m] |= 1 << n
    reach: dict[Root, int] = {}

    def under(a: Root) -> int:
        if a not in reach:
            out = 0
            for i in ctx.even:
                b = sub(a, simple_root(d, i))
                if root_kind(d, b) != "none":
                    out |= bit.get(b, 0) | under(b)
            reach[a] = out
        return reach[a]

    below = [under(x) for x in order]
    found = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for mask in frontier:
            for n, b in enumerate(bit.values()):
                if mask & b or clash[n] & (mask | b) or below[n] & ~mask:
                    continue
                if (key := mask | b) not in found:
                    found.add(key)
                    nxt.append(key)
        frontier = nxt
    return found


def probed_family_completeness(poset: MinusculePoset) -> CheckResult:
    """`minuscule.check_family_completeness` by probing every wall and node,
    where the library reads the family index's keys."""
    ctx = poset.ctx
    problems = []
    for wall in ctx.walls:
        for a in ctx.d.nodes:
            if a not in wall.heads and poset.family(a, wall):
                problems.append(f"unexpected family ({a}, wall {wall.index})")
    return _verdict("family_completeness", problems, "families appear exactly at predicted indices")


def column_bounding_equivalence(poset: MinusculePoset) -> CheckResult:
    """`minuscule.check_bounding_equivalence` building each element's columns
    again by a right multiplication, where the library steps to the columns
    the poset stores: the wall-avoiding BFS keys each element by its
    inversion mask and drops a duplicate before building its columns; a new
    inversion outside S1, or a mask the poset lacks, is an element outside
    the poset."""
    ctx = poset.ctx
    blocked = {pack(a) for a in ctx.bounding_roots()}
    bits = ctx.s1_bits
    seen = {0}
    frontier = [(identity(ctx.d), 0)]
    ok = True
    while frontier and ok:
        nxt = []
        for w, mask in frontier:
            for i, col in enumerate(w):
                if col < 0 or col in blocked:
                    continue
                b = bits.get(col)
                if b is None or (key := mask | b) not in poset.by_mask:
                    ok = False
                    break
                if key not in seen:
                    seen.add(key)
                    nxt.append((_right_mult_simple(ctx.d, w, i), key))
            if not ok:
                break
        frontier = nxt
    count = len(seen)
    return CheckResult("bounding_equivalence", ok and count == len(poset),
                       f"wall-avoiding enumeration found {count} of {len(poset)} elements")


def maximal_by_sets(poset: MinusculePoset, positions: Iterable[int]) -> tuple[int, ...]:
    """The members, in the given order, whose inversion set, read off the
    reduced word, is in no other member's."""
    pos = list(positions)
    sets = {q: word_element(poset.ctx.d, poset.word(q)).inversions for q in pos}
    return tuple(q for q in pos if not any(sets[q] < sets[r] for r in pos))


def certify_word(ctx: GradedContext, word: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The inversion mask, over `ctx.s1_order`, and the packed columns of the
    element a word spells, certified in P with no enumeration; ValueError
    naming the word otherwise.

    Walked from the identity, the word reads the column of each letter; every
    one must be in S1, so the word is reduced and N(t) lies in S1, which puts
    t in P."""
    d, bits = ctx.d, ctx.s1_bits
    cols, mask = identity(d), 0
    for i in word:
        if (b := bits.get(cols[i])) is None:
            raise ValueError(f"word {tuple(word)} has an inversion outside S1")
        mask |= b
        cols = _right_mult_simple(d, cols, i)
    return mask, cols


def certify_maxima(ctx: GradedContext, words: Iterable[Sequence[int]]) -> list[int]:
    """The inversion masks, over `ctx.s1_order`, of the elements the words
    spell, each certified in P (`certify_word`) and maximal there with no
    enumeration, and all distinct; ValueError naming the first word that
    fails.  As t*s_i is in P iff N(t) plus t(alpha_i) lies in S1, t is
    maximal iff no final column is in S1."""
    masks: list[int] = []
    for word in words:
        mask, cols = certify_word(ctx, word)
        if any(col in ctx.s1_bits for col in cols):
            raise ValueError(f"word {tuple(word)} is not maximal in P")
        if mask in masks:
            raise ValueError(f"word {tuple(word)} spells an element spelled before")
        masks.append(mask)
    return masks


def length_ball(d: AffineDiagram, radius: int) -> list[WeylElement]:
    """Every group element of length at most `radius`, in BFS order."""
    start = identity_element(d)
    out = [start]
    seen = {start.mat}
    frontier = [start]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for i in d.nodes:
                grown = w.extend(i)
                if grown is not None and grown.mat not in seen:
                    seen.add(grown.mat)
                    nxt.append(grown)
        out.extend(nxt)
        frontier = nxt
    return out


def reflecting_ascent(d: AffineDiagram, nodes: Iterable[int], a: Root) -> tuple[Root, list[int]]:
    """`roots.dominant_ascent` by reflecting: at each step every pairing
    <g, alpha_i^vee>, i in J, is summed again and g reflected in the smallest
    i with a negative one, where the library carries g's row of pairings and
    updates it at i and i's neighbours."""
    s, g, letters = sorted(set(nodes)), a, []
    while (i := next((i for i in s if pair(d, g, i) < 0), None)) is not None:
        letters.append(i)
        g = reflect_simple(d, g, i)
    return g, letters


def longest_element(
    d: AffineDiagram, nodes: Iterable[int], start: Optional[WeylElement] = None
) -> WeylElement:
    """Longest element w0(J) of the finite parabolic on J = `nodes`, by
    greedy ascent on packed columns from `start` (default the identity), an
    element of W_J: append the smallest i in J with w(alpha_i) > 0 until
    there is none.  Each step adds 1 to the length inside the finite coset
    start*W_J, so the ascent ends, and only at w0(J).  From start = w0(J'),
    J' inside J, the letters it appends spell w0(J')*w0(J) as a reduced
    word (Humphreys, Reflection Groups and Coxeter Groups, 1.10)."""
    s = finite_nodes(d, nodes)
    w = identity_element(d) if start is None else start
    word, cols = list(w.word), w.cols
    while (i := next((i for i in s if cols[i] > 0), None)) is not None:
        word.append(i)
        cols = _right_mult_simple(d, cols, i)
    return WeylElement(d, tuple(word), cols)


def column_quotient(
    d: AffineDiagram, inner: Iterable[int], nodes: Iterable[int]
) -> tuple[int, ...]:
    """The letters the column ascent from w0(J') to w0(J) appends."""
    w0i = longest_element(d, inner)
    return longest_element(d, nodes, start=w0i).word[w0i.length:]


def minimal_mapper(
    d: AffineDiagram,
    nodes: Iterable[int],
    frm: Root,
    to: Root,
    cap: Optional[int] = None,
) -> Optional[WeylElement]:
    """Shortest element of the parabolic on `nodes` sending frm to to.

    BFS over the orbit: the orbit distance equals the minimal length.  Returns
    None if `to` is not reached (within `cap` reflection steps, if given).
    The reference for `weyl.dominant_mapper` and for the special involution,
    whose level-zero target has no dominant representative.
    """
    s = sorted(set(nodes))
    if frm == to:
        return identity_element(d)
    parent: dict[Root, tuple[Root, int]] = {frm: (frm, -1)}
    frontier = [frm]
    depth = 0
    while frontier:
        depth += 1
        if cap is not None and depth > cap:
            return None
        if len(parent) > 500_000:
            raise RuntimeError("orbit search exploded; pass a cap")
        nxt: list[Root] = []
        for g in frontier:
            for i in s:
                h = reflect_simple(d, g, i)
                if h in parent:
                    continue
                parent[h] = (g, i)
                if h == to:
                    return word_element(d, _path_word(parent, to))
                nxt.append(h)
        frontier = nxt
    return None


def _path_word(parent: dict[Root, tuple[Root, int]], to: Root) -> list[int]:
    # path frm -> to via s_{i_1},..,s_{i_k} gives w = s_{i_k}...s_{i_1}
    letters = []
    cur = to
    while True:
        prev, i = parent[cur]
        if i < 0:
            return letters
        letters.append(i)
        cur = prev
