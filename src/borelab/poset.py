"""The poset attached to an order-2 grading: the Weyl group elements whose
inversion sets consist only of odd-height-1 roots, a lower set in the right
weak order in bijection with the Borel-stable abelian subalgebras of the odd
part, with dimension equal to length.  The closed forms of its maxima are
reduced words the grading owns (`GradedContext.closed_form_maxima`), placed
here (`position`, `parametrization`); `borelab.minuscule` holds the checks.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from .grading import GradedContext, Wall
from .weyl import _right_mult_simple, identity, pack


class MinusculePoset:
    """BFS-enumerated poset of elements with all inversions of odd height 1.

    Element p is its inversion set `masks[p]` over `ctx.s1_order`, its key
    (`by_mask`, as w -> N(w) is injective) and length; its packed columns
    `cols[p]`; and p = parents[p] * s_i, i = `letters[p]`, parents[p] < p
    the element the enumeration first reached p from (both -1 at the
    identity, p = 0), along which `word` spells p on demand.
    """

    def __init__(self, ctx: GradedContext, masks: tuple[int, ...], parents: tuple[int, ...],
                 letters: tuple[int, ...], cols: tuple[tuple[int, ...], ...],
                 edges: tuple[tuple[int, int], ...], complete: bool, by_mask: dict[int, int]):
        self.ctx = ctx
        self.masks = masks
        self.parents = parents
        self.letters = letters
        self.cols = cols
        self.edges = edges
        self.complete = complete
        self.by_mask = by_mask

    def __len__(self) -> int:
        return len(self.masks)

    def length(self, p: int) -> int:
        return self.masks[p].bit_count()

    def word(self, p: int) -> tuple[int, ...]:
        """Reduced word of element p: the letters along its parents."""
        out = []
        while p > 0:
            out.append(self.letters[p])
            p = self.parents[p]
        return tuple(reversed(out))

    def truncation(self) -> str:
        """Where an incomplete enumeration stopped."""
        return (f"enumeration truncated at length {self.length(len(self) - 1)} "
                f"after {len(self)} elements; longer elements exist")

    def step(self, p: int, i: int) -> Optional[int]:
        """Place of p*s_i: p's mask plus the bit of its column i, looked up;
        None if that column is not in S1 or the mask is not in the poset."""
        b = self.ctx.s1_bits.get(self.cols[p][i])
        return None if b is None else self.by_mask.get(self.masks[p] | b)

    def position(self, word: Iterable[int]) -> Optional[int]:
        """Place of the element a reduced word spells; None if the word is not
        reduced, has an inversion outside S1 or reaches past a truncation.
        P is a lower set in the weak order, so each prefix of the word is in
        P when the whole word is: the walk steps along it from the identity."""
        p = 0
        for i in word:
            if (p := self.step(p, i)) is None:
                return None
        return p

    @cached_property
    def maxima(self) -> tuple[int, ...]:
        """Elements with no cover; ValueError if the poset is incomplete."""
        if not self.complete:
            raise ValueError(self.truncation())
        sources = {a for a, _ in self.edges}
        return tuple(i for i in range(len(self)) if i not in sources)

    @cached_property
    def parametrization(self) -> tuple[MaximumItem, ...]:
        """`maxima_parametrization`, the context's `closed_form_maxima` placed,
        built once per poset; ValueError on each read if the poset is
        incomplete or a closed-form word leaves it."""
        if not self.complete:
            raise ValueError(self.truncation())
        items = []
        for kind, alphas, walls, word, dimension, label in self.ctx.closed_form_maxima:
            if (pos := self.position(word)) is None:
                raise ValueError(f"{label}: closed-form word leaves the poset")
            items.append(MaximumItem(kind, alphas, walls, pos, dimension, label))
        return tuple(items)

    @cached_property
    def _family_table(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """(alpha, wall index) -> the p with cols[p][alpha] the wall root,
        ascending and so in length order; p's columns are distinct roots."""
        table: dict[tuple[int, int], list[int]] = {}
        for wall in self.ctx.walls:
            root = pack(wall.root)
            for pos, cols in enumerate(self.cols):
                if root in cols:
                    table.setdefault((cols.index(root), wall.index), []).append(pos)
        return {k: tuple(v) for k, v in table.items()}

    def family(self, alpha: int, wall: Wall) -> tuple[int, ...]:
        """Positions of elements sending alpha's simple root to the wall root."""
        return self._family_table.get((alpha, wall.index), ())


def enumerate_poset(ctx: GradedContext, max_length: Optional[int] = None) -> MinusculePoset:
    """Breadth-first enumeration: the elements are a queue, read as it grows,
    so each parent comes before its child and the lengths ascend.

    A cover w -> w*s_i exists when the packed column w(alpha_i) is in S1; its
    target is looked up by inversion mask before its columns are built.
    Columns are visited in node order, which fixes the order of the elements
    and of `edges`.  An element at the cap length is not stepped from; it
    marks the poset truncated if a column of it is in S1."""
    if max_length is not None and max_length < 0:
        raise ValueError(f"max_length must be at least 0, not {max_length}")
    d = ctx.d
    bits = ctx.s1_bits
    cap = len(bits) if max_length is None else min(max_length, len(bits))
    masks, parents, letters, cols = [0], [-1], [-1], [identity(d)]
    by_mask = {0: 0}
    edges: list[tuple[int, int]] = []
    truncated = False
    for src, w in enumerate(cols):  # appended to as it is read: breadth-first
        mask = masks[src]
        if mask.bit_count() == cap:
            truncated = truncated or any(col in bits for col in w)
            continue
        for i, col in enumerate(w):
            b = bits.get(col)
            if b is None:
                continue
            if mask & b:
                raise RuntimeError(f"column {i} of element {src} is already an inversion")
            key = mask | b
            tgt = by_mask.get(key)
            if tgt is None:
                tgt = by_mask[key] = len(masks)
                masks.append(key)
                parents.append(src)
                letters.append(i)
                cols.append(_right_mult_simple(d, w, i))
            edges.append((src, tgt))
    return MinusculePoset(ctx, tuple(masks), tuple(parents), tuple(letters), tuple(cols),
                          tuple(edges), not truncated, by_mask)


class MaximumItem(NamedTuple):
    """One entry of the maxima parametrization, placed in the poset."""

    kind: str  # "component", "pair", "odd"
    alphas: tuple[int, ...]
    wall_indices: tuple[int, ...]
    position: int
    dimension: int
    label: str


def maxima_parametrization(poset: MinusculePoset) -> tuple[MaximumItem, ...]:
    """The closed-form maximal elements with their closed-form dimensions,
    each placed in the enumerated poset by its word."""
    return poset.parametrization
