"""Root arithmetic in simple-root coordinates over an affine diagram.

A root is a plain tuple of ints, one coordinate per diagram node.  All pairings
with coroots are integers; the invariant bilinear form takes Fraction values
and is normalized so that long real roots have squared length 2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .cartan import AffineDiagram

Root = tuple[int, ...]


def simple_root(d: AffineDiagram, i: int) -> Root:
    return tuple(1 if j == i else 0 for j in d.nodes)


def delta(d: AffineDiagram) -> Root:
    """The primitive imaginary root (coordinates = marks)."""
    return d.marks


def add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Root, b: Root) -> Root:
    return tuple(x - y for x, y in zip(a, b))


def neg(a: Root) -> Root:
    return tuple(-x for x in a)


def scale(k: int, a: Root) -> Root:
    return tuple(k * x for x in a)


def ht(a: Root) -> int:
    return sum(a)


def ht_subset(a: Root, nodes: Iterable[int]) -> int:
    return sum(a[i] for i in nodes)


def is_positive(a: Root) -> bool:
    return any(a) and min(a) >= 0


def is_negative(a: Root) -> bool:
    return any(a) and max(a) <= 0


def pair(d: AffineDiagram, a: Root, i: int) -> int:
    """<a, alpha_i^vee>."""
    return sum(d.cartan[i][j] * a[j] for j in d.nodes)


def bilinear(d: AffineDiagram, a: Root, b: Root) -> Fraction:
    """Invariant form (a, b); long real roots have (a, a) = 2."""
    total = Fraction(0)
    for i in d.nodes:
        if a[i]:
            total += a[i] * d.symmetrizer[i] * pair(d, b, i)
    return total


def norm_sq(d: AffineDiagram, a: Root) -> Fraction:
    return bilinear(d, a, a)


def coroot_pair(d: AffineDiagram, beta: Root, a: Root) -> int:
    """<a, beta^vee> = 2(a, beta)/(beta, beta) for a real root beta."""
    nb = norm_sq(d, beta)
    if nb == 0:
        raise ValueError(f"{beta} is isotropic, has no coroot")
    v = 2 * bilinear(d, a, beta) / nb
    if v.denominator != 1:
        raise ValueError(f"pairing of {a} with {beta}^vee is not integral")
    return int(v)


def reflect_simple(d: AffineDiagram, a: Root, i: int) -> Root:
    c = pair(d, a, i)
    if c == 0:
        return a
    return tuple(x - c if j == i else x for j, x in enumerate(a))


def root_kind(d: AffineDiagram, a: Root) -> str:
    """Classify an integer vector: "real", "imaginary", or "none".

    Real roots are detected by reflecting toward lower height, always through
    the node of largest positive coroot pairing.  A vector with coordinates of
    both signs is never a root.
    """
    kind = d.root_kinds.get(a)
    if kind is None:
        kind = d.root_kinds[a] = _root_kind_uncached(d, a)
    return kind


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


def subsystem_closure(d: AffineDiagram, nodes: Iterable[int]) -> frozenset[Root]:
    """Positive roots of the finite subsystem on a proper subset of nodes."""
    key = frozenset(nodes)
    cached = d.closures.get(key)
    if cached is not None:
        return cached
    s = sorted(key)
    if len(s) >= d.size:
        raise ValueError("subsystem must omit at least one node")
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
    result = d.closures[key] = frozenset(roots)
    return result


def highest_root(d: AffineDiagram, nodes: Iterable[int]) -> Root:
    """Highest root of a connected finite subsystem (checked dominant)."""
    s = sorted(set(nodes))
    closure = subsystem_closure(d, s)
    theta = max(closure, key=ht)
    if sum(1 for a in closure if ht(a) == ht(theta)) != 1:
        raise ValueError(f"subsystem on {s} is not connected")
    if any(pair(d, theta, i) < 0 for i in s):
        raise RuntimeError(f"highest root {theta} of {s} is not dominant")
    return theta


def is_long(d: AffineDiagram, a: Root, nodes: Optional[Iterable[int]] = None) -> bool:
    """Long: squared length 2 globally, or maximal within a given subsystem
    (every root of a finite subsystem is conjugate to one of its simples)."""
    if nodes is None:
        return norm_sq(d, a) == 2
    return norm_sq(d, a) == max(d.norm(i) for i in nodes)
