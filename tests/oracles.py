"""Independent reference implementations the tests compare the library with.

None of these is used by `borelab` itself.  The coset trio reaches minimal
coset representatives by reflection-subgroup normalization and full group
elements, a route the library's lockstep coset walk
(`minuscule.coset_translates`) does not take.  The structural trio decides
sums and decompositions with `root_kind`, where the library's mask tables
(`minuscule.structural_masks`) use string lengths.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from borelab.cartan import AffineDiagram, _classify_component, components
from borelab.grading import GradedContext
from borelab.roots import Root, add, is_negative, is_positive, reflect_simple, root_kind, sub
from borelab.weyl import (
    Cols,
    WeylElement,
    _apply_cols,
    _from_mats,
    _left_mult_reflection,
    _right_mult_simple,
    identity,
)


def classify_finite(d: AffineDiagram, nodes: Iterable[int]) -> str:
    """Cartan type of the finite subsystem on `nodes`, e.g. "A2 x B3".

    Components are labeled in order of least node.  An empty set is "trivial".
    """
    comps = components(d, tuple(nodes))
    if not comps:
        return "trivial"
    return " x ".join(_classify_component(d, c) for c in comps)


def minimal_coset_rep(
    d: AffineDiagram, g: WeylElement, subgroup_roots: Sequence[Root]
) -> WeylElement:
    """Minimal element of W'g, W' the reflection subgroup on the given simples.

    Valid whenever subgroup_roots is a canonical simple system (pairwise
    non-positive inner products); repeatedly strips reflections s_beta with
    g^{-1}(beta) < 0, which always shortens g.
    """
    mat, inv = _normalize_mats(d, g.mat, g.inv, subgroup_roots)
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
    start = identity(d)
    reps = [start]
    seen = {start.mat}
    queue = [start]
    while queue:
        nxt: list[WeylElement] = []
        for u in queue:
            for i in ambient:
                mat = _right_mult_simple(d, u.mat, i)
                inv = tuple(reflect_simple(d, c, i) for c in u.inv)
                mat, inv = _normalize_mats(d, mat, inv, subgroup_roots)
                if mat not in seen:
                    seen.add(mat)
                    v = _from_mats(d, mat, inv)
                    reps.append(v)
                    nxt.append(v)
        queue = nxt
    return reps


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


def length_ball(d: AffineDiagram, radius: int) -> list[WeylElement]:
    """Every group element of length at most `radius`, in BFS order."""
    start = identity(d)
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
