"""Affine Weyl group elements.

An element is its action matrix (column i = image of the i-th simple root, in
simple-root coordinates) and a reduced word, nothing else.  Every element is
built from the identity by checked right extension w -> w*s_i, which needs
w(alpha_i) > 0; there is no group product, inverse matrix or search.  A closed
form that is a product with lengths adding is built from its factors' words
put end to end.  The inversion set {gamma > 0 : w^{-1}(gamma) < 0} is read
off the reduced word on each request: for w = s_{i1}...s_{il} it is
{s_{i1}...s_{i(j-1)}(alpha_{ij})}.  Length equals the inversion count, and
the right weak order is containment of inversion sets.
"""

from __future__ import annotations

from math import prod
from operator import add, neg
from typing import Iterable, Optional

from .cartan import AffineDiagram, finite_type_sizes, positive_root_count
from .roots import Root, dominant_ascent, is_negative, is_positive, pair

Cols = tuple[Root, ...]


def _apply_cols(cols: Cols, a: Root) -> Root:
    n = len(a)
    out = [0] * n
    for j, c in enumerate(a):
        if c:
            col = cols[j]
            for t in range(n):
                out[t] += c * col[t]
    return tuple(out)


def _right_mult_simple(d: AffineDiagram, mat: Cols, i: int) -> Cols:
    """Matrix of w*s_i from that of w.

    w*s_i(alpha_j) = w(alpha_j) - A[i][j]*w(alpha_i), so only column i, which
    is negated, and the columns of i's neighbors change; every other column
    is reused (Humphreys, Reflection Groups and Coxeter Groups, 5.4)."""
    row = d.cartan[i]
    col_i = mat[i]
    out = list(mat)
    out[i] = tuple(map(neg, col_i))
    for j in d.neighbor_table[i]:
        c = row[j]
        col = mat[j]
        out[j] = tuple(map(add, col, col_i)) if c == -1 else tuple(
            [x - c * y for x, y in zip(col, col_i)])
    return tuple(out)


class WeylElement:
    """Group element: its matrix and a reduced word."""

    __slots__ = ("d", "word", "mat")

    def __init__(self, d: AffineDiagram, word: tuple[int, ...], mat: Cols):
        self.d = d
        self.word = word
        self.mat = mat

    @property
    def inversions(self) -> frozenset[Root]:
        """{gamma > 0 : w^{-1}(gamma) < 0}: each letter's simple root under
        the prefix of the reduced word before it."""
        out = []
        mat = self.d.simple_roots
        for i in self.word:
            out.append(mat[i])
            mat = _right_mult_simple(self.d, mat, i)
        return frozenset(out)

    @property
    def length(self) -> int:
        return len(self.word)

    def apply(self, a: Root) -> Root:
        return _apply_cols(self.mat, a)

    def extend(self, i: int) -> Optional["WeylElement"]:
        """w*s_i if that is longer (image of alpha_i positive), else None."""
        if not is_positive(self.mat[i]):
            return None
        return WeylElement(self.d, self.word + (i,), _right_mult_simple(self.d, self.mat, i))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.mat == other.mat

    def __hash__(self) -> int:
        return hash(self.mat)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<w {'.'.join(map(str, self.word)) or 'e'}>"


def identity(d: AffineDiagram) -> WeylElement:
    return WeylElement(d, (), d.simple_roots)


def longest_element(
    d: AffineDiagram, nodes: Iterable[int], start: Optional[WeylElement] = None
) -> WeylElement:
    """Longest element w0(J) of the finite parabolic on J = `nodes`, by
    greedy ascent from `start` (default the identity), an element of W_J.

    Any ascent in W_J ends at w0(J).  From start = w0(J'), J' inside J, the
    letters it appends spell w0(J')*w0(J) as a reduced word, since w0(J) =
    w0(J')*(w0(J')*w0(J)) with lengths adding (Humphreys, Reflection Groups
    and Coxeter Groups, 1.10)."""
    s = sorted(set(nodes))
    cap = positive_root_count(d, s)
    w = identity(d) if start is None else start
    for _ in range(cap):
        i = next((i for i in s if is_positive(w.mat[i])), None)
        if i is None:
            return w
        w = w.extend(i)
    if not all(is_negative(w.mat[i]) for i in s):
        raise RuntimeError(f"no longest element on nodes {s} within length {cap}")
    return w


def longest_quotient(
    d: AffineDiagram, inner: Iterable[int], nodes: Iterable[int]
) -> WeylElement:
    """w0(J')*w0(J) for J' = `inner` inside J = `nodes`: the letters the
    ascent from w0(J') to w0(J) appends, as a checked reduced word.  It is
    the longest minimal representative of W_J' in W_J."""
    w0i = longest_element(d, inner)
    return _word_element(d, longest_element(d, nodes, start=w0i).word[w0i.length:])


def dominant_mapper(
    d: AffineDiagram, nodes: Iterable[int], frm: Root, to: Root
) -> Optional[WeylElement]:
    """Shortest element of the finite parabolic on J = `nodes` sending frm to
    `to`, which must be dominant for J; None if `to` is not in frm's orbit.

    The walk is `roots.dominant_ascent` from frm.  If w(frm) = to, each
    beta > 0 of Phi_J with <frm, beta^vee> < 0 pairs negatively with the
    dominant `to` after w, so w(beta) < 0: l(w) is at least the number of
    such beta.  Each step removes exactly one of them, so the walk is a
    shortest mapper when it ends at `to`, and it ends there iff `to` is in
    the orbit (the closed chamber meets each orbit once).  The mappers form
    a coset W_K*w of the parabolic stabilizer of `to`, whose shortest
    element is unique, so this is the element the orbit search in
    `tests/oracles.py` finds (Humphreys, Reflection Groups and Coxeter
    Groups, 1.10-1.12).
    """
    s = sorted(set(nodes))
    if any(pair(d, to, i) < 0 for i in s):
        raise ValueError(f"{to} is not dominant for nodes {s}")
    g, letters = dominant_ascent(d, s, frm)
    return _word_element(d, reversed(letters)) if g == to else None


def _word_element(d: AffineDiagram, word: Iterable[int]) -> WeylElement:
    """Element of a word that the caller knows to be reduced (checked)."""
    w = identity(d)
    for i in word:
        nxt = w.extend(i)
        if nxt is None:
            raise RuntimeError(f"word {w.word + (i,)} is not reduced")
        w = nxt
    return w


def weyl_group_order(d: AffineDiagram, nodes: Iterable[int]) -> int:
    """Order of the finite parabolic on a proper subset of nodes."""
    return prod(order for _, order in finite_type_sizes(d, nodes))
