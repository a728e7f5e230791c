"""Root arithmetic in simple-root coordinates over an affine diagram.

A root is a plain tuple of ints, one coordinate per diagram node.  All pairings
with coroots are integers.  Inside the library the invariant bilinear form is
integer-scaled: `form` gives L * (a, b), read off the diagram's integer Gram
rows (L is `AffineDiagram.form_scale`).  Fraction appears only at the public
boundary, in `bilinear` and `norm_sq`, normalized so that long real roots
have squared length 2.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add as _add, mul, neg as _neg, sub as _sub
from typing import Iterable, Optional

from .cartan import AffineDiagram

Root = tuple[int, ...]


def simple_root(d: AffineDiagram, i: int) -> Root:
    return d.simple_roots[i]


def delta(d: AffineDiagram) -> Root:
    """The primitive imaginary root (coordinates = marks)."""
    return d.marks


def add(a: Root, b: Root) -> Root:
    return tuple(map(_add, a, b))


def sub(a: Root, b: Root) -> Root:
    return tuple(map(_sub, a, b))


def neg(a: Root) -> Root:
    return tuple(map(_neg, a))


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
    return sum(map(mul, d.cartan[i], a))


def form(d: AffineDiagram, a: Root, b: Root) -> int:
    """L * (a, b), an integer; L = d.form_scale."""
    return sum(x * sum(map(mul, row, b)) for x, row in zip(a, d.gram) if x)


def bilinear(d: AffineDiagram, a: Root, b: Root) -> Fraction:
    """Invariant form (a, b); long real roots have (a, a) = 2."""
    return Fraction(form(d, a, b), d.form_scale)


def norm_sq(d: AffineDiagram, a: Root) -> Fraction:
    return bilinear(d, a, a)


def coroot_pair(d: AffineDiagram, beta: Root, a: Root) -> int:
    """<a, beta^vee> = 2(a, beta)/(beta, beta) for a real root beta."""
    nb = form(d, beta, beta)
    if nb == 0:
        raise ValueError(f"{beta} is isotropic, has no coroot")
    v, r = divmod(2 * form(d, a, beta), nb)
    if r:
        raise ValueError(f"pairing of {a} with {beta}^vee is not integral")
    return v


def reflect_simple(d: AffineDiagram, a: Root, i: int) -> Root:
    c = pair(d, a, i)
    if c == 0:
        return a
    b = list(a)
    b[i] -= c
    return tuple(b)


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
        return form(d, a, a) == 2 * d.form_scale
    # the diagonal Gram entry 2 * L * d_i is the scaled norm of alpha_i
    return form(d, a, a) == max(d.gram[i][i] for i in nodes)
