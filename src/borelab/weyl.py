"""Affine Weyl group elements as packed columns.

An element is the tuple of its packed columns, nothing else.  Column i,
w(alpha_i), is one int: a vector a is sum of a_t * 2**(W*t), signed W-bit
fields, little-endian by node (`pack`, `unpack`).  Packing is linear, so
w*s_i rewrites a column with one int operation, and w sends a packed vector
v to the sum of v_j * cols[j].  Every root of a Kac-Moody algebra has all
its coordinates >= 0 or all <= 0 (Kac, Infinite-dimensional Lie algebras,
1.3), so the int has the root's sign: w(alpha_i) > 0 is `cols[i] > 0`.

Every element is built from the identity's columns by right multiplications
w -> w*s_i, each checked to need w(alpha_i) > 0.  There is no group product,
inverse matrix or search.  A closed form is a reduced word: the letters of a
walk in a finite parabolic, which `roots` owns (`roots.longest_quotient`,
and `dominant_mapper`'s ascent reversed), or for a product with lengths
adding its factors' words end to end.  The inversion set
{gamma > 0 : w^{-1}(gamma) < 0} is read off a reduced word walked from the
identity: for w = s_{i1}...s_{il} it is the columns the letters step
through, {s_{i1}...s_{i(j-1)}(alpha_{ij})}.  Length equals the inversion
count, and the right weak order is containment of inversion sets.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .cartan import AffineDiagram
from .roots import Root, dominant_ascent, pair

W = 16  # bits per coordinate field
# Packed vectors have sum |a_t| < BOUND, so the fields hold their coordinates
# exactly and packing is injective; `pack` and `_right_mult_simple` raise
# OverflowError otherwise.  As 2**W = 1 mod 2**W - 1, a packed root's int mod
# 2**W - 1 is its height up to sign, if that is below 2**W - 1: affine Cartan
# entries are >= -4, so col_j - A[i][j]*col_i has height below 5 * BOUND.
# Poset columns of the whole catalog have coordinates within 6.
BOUND = 1 << (W - 4)
_FIELD = (1 << W) - 1


def pack(a: Root) -> int:
    """sum of a_t * 2**(W*t); OverflowError if sum |a_t| reaches BOUND."""
    if sum(map(abs, a)) >= BOUND:
        raise OverflowError(f"{a} is past the packed bound {BOUND}")
    return sum(x << (W * t) for t, x in enumerate(a))


def unpack(col: int, n: int) -> Root:
    """The n coordinates of a packed root, which all have the int's sign."""
    mag, sign = (col, 1) if col > 0 else (-col, -1)
    return tuple(sign * (mag >> (W * t) & _FIELD) for t in range(n))


def _right_mult_simple(d: AffineDiagram, cols: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Packed columns of w*s_i from those of w.

    w*s_i(alpha_j) = w(alpha_j) - A[i][j]*w(alpha_i), so only column i, which
    is negated, and the columns of i's neighbors change; every other column
    is reused (Humphreys, Reflection Groups and Coxeter Groups, 5.4).  A
    changed column of height past the bound raises OverflowError."""
    row = d.cartan[i]
    col_i = cols[i]
    out = list(cols)
    out[i] = -col_i
    for j in d.neighbor_table[i]:
        c = out[j] = cols[j] - row[j] * col_i
        if abs(c) % _FIELD >= BOUND:
            raise OverflowError(f"w*s_{i} has a column past the packed bound {BOUND}")
    return tuple(out)


def identity(d: AffineDiagram) -> tuple[int, ...]:
    """Packed columns of the identity: column i is alpha_i."""
    return tuple(1 << W * i for i in d.nodes)


def dominant_mapper(
    d: AffineDiagram, nodes: Iterable[int], frm: Root, to: Root
) -> Optional[tuple[int, ...]]:
    """Reduced word of the shortest element of the finite parabolic on J =
    `nodes` sending frm to `to`, dominant for J; None if `to` is not in frm's
    orbit.

    The word is the letters of `roots.dominant_ascent` from frm, reversed.
    If w(frm) = to, each beta > 0 of Phi_J with <frm, beta^vee> < 0 pairs
    negatively with the dominant `to` after w, so w(beta) < 0: l(w) is at
    least the number of such beta.  Each step removes exactly one of them,
    so the word is reduced and spells a shortest mapper when the walk ends
    at `to`, and it ends there iff `to` is in the orbit (the closed chamber
    meets each orbit once).  The mappers form a coset W_K*w of the parabolic
    stabilizer of `to`, whose shortest element is unique, so this is the
    element the orbit search in `tests/oracles.py` finds (Humphreys,
    Reflection Groups and Coxeter Groups, 1.10-1.12).
    """
    s = sorted(set(nodes))
    if any(pair(d, to, i) < 0 for i in s):
        raise ValueError(f"{to} is not dominant for nodes {s}")
    g, letters = dominant_ascent(d, s, frm)
    return tuple(reversed(letters)) if g == to else None

