"""Root arithmetic in simple-root coordinates over an affine diagram.

A root is a plain tuple of ints, one coordinate per diagram node.  All pairings
with coroots are integers.  Inside the library the invariant bilinear form is
integer-scaled: `form` gives L * (a, b), read off the diagram's integer Gram
rows (L is `AffineDiagram.form_scale`).  Fraction appears only at the public
boundary, in `bilinear` and `norm_sq`, normalized so that long real roots
have squared length 2; `fractions` is imported when they are called.
Finite-parabolic data live here too: dominant ascent, highest roots, and
from them dual Coxeter numbers, positive-root counts and Weyl group orders.
"""

from __future__ import annotations

from math import factorial, prod
from operator import add as _add, mul, neg as _neg, sub as _sub
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .cartan import AffineDiagram, components, finite_nodes

if TYPE_CHECKING:
    from fractions import Fraction

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


def is_positive(a: Root) -> bool:
    return any(a) and min(a) >= 0


def pair(d: AffineDiagram, a: Root, i: int) -> int:
    """<a, alpha_i^vee>."""
    return sum(map(mul, d.cartan[i], a))


def form(d: AffineDiagram, a: Root, b: Root) -> int:
    """L * (a, b), an integer; L = d.form_scale."""
    return sum(x * sum(map(mul, row, b)) for x, row in zip(a, d.gram) if x)


def bilinear(d: AffineDiagram, a: Root, b: Root) -> Fraction:
    """Invariant form (a, b); long real roots have (a, a) = 2."""
    from fractions import Fraction

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


def subsystem_closure(d: AffineDiagram, nodes: Iterable[int]) -> frozenset[Root]:
    """Positive roots of the finite subsystem on a proper subset of nodes."""
    s = finite_nodes(d, nodes)
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


def dominant_ascent(d: AffineDiagram, nodes: Iterable[int], a: Root) -> tuple[Root, list[int]]:
    """The dominant root of a's orbit under the finite parabolic on J =
    `nodes`, and the letters of the walk there.

    From g = a, apply s_i for the smallest i in J with <g, alpha_i^vee> < 0
    until g is dominant for J.  Each step removes exactly one beta > 0 of
    Phi_J with <g, beta^vee> < 0, and Phi_J is finite (`finite_nodes`), so
    the walk ends, after at most |Phi_J^+| steps (Humphreys, Reflection
    Groups and Coxeter Groups, 1.10-1.12).
    """
    return _ascend(d, finite_nodes(d, nodes), a)


def _ascend(d: AffineDiagram, s: Sequence[int], a: Root) -> tuple[Root, list[int]]:
    """`dominant_ascent` on a node list s that `finite_nodes` has checked."""
    g, letters = a, []
    while (i := next((i for i in s if pair(d, g, i) < 0), None)) is not None:
        letters.append(i)
        g = reflect_simple(d, g, i)
    return g, letters


def highest_root(d: AffineDiagram, nodes: Iterable[int]) -> Root:
    """Highest root of a connected finite subsystem: the unique dominant long
    root (Humphreys, Introduction to Lie Algebras, 10.4), reached by dominant
    ascent from a long simple root."""
    s = finite_nodes(d, nodes)
    if len(components(d, s)) != 1:
        raise ValueError(f"subsystem on {s} is not connected")
    return _highest_root(d, s)


def _highest_root(d: AffineDiagram, s: Sequence[int]) -> Root:
    """`highest_root` of a connected node list s that `finite_nodes` has checked."""
    longest = max(s, key=lambda i: d.gram[i][i])  # the Gram diagonal is L * (a_i, a_i)
    return _ascend(d, s, simple_root(d, longest))[0]


def theta_dual_coxeter(d: AffineDiagram, theta: Root) -> int:
    """Dual Coxeter number of the finite subsystem whose highest root is
    theta: 1 + the coroot height of theta.  If theta = sum c_i a_i, its
    coroot is sum c_i * d_i / d_theta * alpha_i^vee, and 2 * L * d_i is the
    diagonal Gram entry, 2 * L * d_theta the scaled norm of theta."""
    diag = sum(c * d.gram[i][i] for i, c in enumerate(theta))
    height, rem = divmod(diag, form(d, theta, theta))
    if rem:
        raise ValueError("coroot height is not integral")
    return height + 1


def finite_type_sizes(d: AffineDiagram, nodes: Iterable[int]) -> list[tuple[int, int]]:
    """(|positive roots|, |Weyl group|) of each component of the finite
    subsystem on a proper node subset, read off the component's highest root
    theta = sum c_i a_i on its n nodes, with no type name:

    - |Phi^+| = n * h / 2, h = ht(theta) + 1 the Coxeter number (Humphreys,
      Reflection Groups and Coxeter Groups, Sec. 3.18-3.20);
    - |W| = n! * f * prod c_i, f = 1 + #{i : c_i = 1} the connection index
      (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Sec. 2.3-2.4).
    """
    sizes = []
    for comp in components(d, finite_nodes(d, nodes)):
        c = [x for x in _highest_root(d, comp) if x]  # theta's support is comp
        n = len(c)
        sizes.append((n * (sum(c) + 1) // 2, factorial(n) * (1 + c.count(1)) * prod(c)))
    return sizes


def positive_root_count(d: AffineDiagram, nodes: Iterable[int]) -> int:
    """Number of positive roots of the finite subsystem on a proper node subset."""
    return sum(count for count, _ in finite_type_sizes(d, nodes))


def weyl_group_order(d: AffineDiagram, nodes: Iterable[int]) -> int:
    """Order of the finite parabolic on a proper subset of nodes."""
    return prod(order for _, order in finite_type_sizes(d, nodes))


def is_long(d: AffineDiagram, a: Root, nodes: Optional[Iterable[int]] = None) -> bool:
    """Long: squared length 2 globally, or maximal within a given subsystem
    (every root of a finite subsystem is conjugate to one of its simples)."""
    if nodes is None:
        return form(d, a, a) == 2 * d.form_scale
    # the diagonal Gram entry 2 * L * d_i is the scaled norm of alpha_i
    return form(d, a, a) == max(d.gram[i][i] for i in nodes)
