"""Root arithmetic in simple-root coordinates over an affine diagram.

A root is a plain tuple of ints, one coordinate per diagram node.  All pairings
with coroots are integers.  Inside the library the invariant bilinear form is
integer-scaled: `form` gives L * (a, b), read off the diagram's integer Gram
rows (L is `AffineDiagram.form_scale`).  Fraction appears only at the public
boundary, in `bilinear` and `norm_sq`, normalized so that long real roots
have squared length 2; `fractions` is imported when they are called.
One raising walk, `raising_closure`, builds the positive roots of bounded
grade: a finite subsystem's, and a grading's of odd height 0, 1 and 2.
Every walk in a finite parabolic W_J lives here too, as one greedy walk,
`_ascend`, read two ways: from a root, the dominant ascent and the highest
roots (and from them dual Coxeter numbers, positive-root counts and Weyl
group orders); from a weight, the reduced word of w0(J')*w0(J)
(`longest_quotient`).
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


def raising_closure(d: AffineDiagram, grade: Sequence[int], top: int) -> dict[Root, int]:
    """Every positive root a, real or imaginary, with g(a) = sum grade_i * a_i
    at most top, mapped to g(a); the grades are >= 0.

    The positive part of the algebra is generated by the simple root vectors,
    so every positive root of height h + 1 is a root of height h, of no larger
    g, plus a simple root.  Read from one queue, height by height, all roots
    below a are known, so the alpha_i-string through a reaches p steps down, and
    p - q = c = <a, alpha_i^vee> (Kac, Infinite-dimensional Lie algebras,
    3.6, imaginary roots included) says whether it goes up: q > 0 iff p > c,
    that is c < 0 or, the string being unbroken, a - (c + 1) * alpha_i is a
    root.  Each root carries its row of pairings <a, alpha_j^vee>, raised by
    a column of the Cartan matrix.  If grade is 0 on every node, every
    multiple of delta has g = 0 and the set is infinite: ValueError.
    """
    if not any(grade):
        raise ValueError(f"grade {tuple(grade)} is 0 on every node of {d.label}: "
                         f"infinitely many roots")
    cols = list(zip(*d.cartan))  # cols[i][j] = <alpha_i, alpha_j^vee>
    found = {a: g for a, g in zip(d.simple_roots, grade) if g <= top}
    queue = [(a, g, col) for a, g, col in zip(d.simple_roots, grade, cols) if g <= top]
    for a, ga, row in queue:
        for i, c in enumerate(row):
            g = ga + grade[i]
            if g > top:
                continue
            if c >= 0 and (a[i] <= c or a[:i] + (a[i] - c - 1,) + a[i + 1:] not in found):
                continue
            b = a[:i] + (a[i] + 1,) + a[i + 1:]
            if b not in found:
                found[b] = g
                queue.append((b, g, tuple(map(_add, row, cols[i]))))
    return found


def subsystem_closure(d: AffineDiagram, nodes: Iterable[int]) -> frozenset[Root]:
    """Positive roots of the finite subsystem on a proper subset of nodes: the
    roots of grade 0 when every other node has grade 1."""
    s = finite_nodes(d, nodes)
    return frozenset(raising_closure(d, [0 if i in s else 1 for i in d.nodes], 0))


def dominant_ascent(d: AffineDiagram, nodes: Iterable[int], a: Root) -> tuple[Root, list[int]]:
    """The dominant root of a's orbit under the finite parabolic on J =
    `nodes`, and the letters of the walk there (`_ascend`)."""
    g = list(a)
    letters = _ascend(d, finite_nodes(d, nodes), [pair(d, a, j) for j in d.nodes], g)
    return tuple(g), letters


def longest_quotient(
    d: AffineDiagram, inner: Iterable[int], nodes: Iterable[int]
) -> tuple[int, ...]:
    """w0(J')*w0(J), J' = `inner` inside J = `nodes`, as a reduced word: the
    letters of the walk from the weight lam pairing -1 with each node of J
    minus J' and 0 with each of J'.  w0(J) makes lam dominant and lam's
    stabilizer in W_J is W_J', so the walk applies the shortest x^{-1} in
    w0(J)*W_J' and its letters spell x = w0(J')*w0(J), one per root of
    Phi_J^+ outside Phi_J' (Humphreys, Reflection Groups and Coxeter Groups,
    1.10-1.12).  w0(J) is longest_quotient(d, (), J)."""
    s = finite_nodes(d, nodes)
    top = set(s).difference(inner)
    return tuple(_ascend(d, s, [-1 if j in top else 0 for j in d.nodes], [0] * d.size))


def _ascend(d: AffineDiagram, s: Sequence[int], row: list[int], g: list[int]) -> list[int]:
    """The letters of the walk of every finite parabolic, on a node list s
    that `finite_nodes` has checked: apply s_i for the smallest i in s with
    <g, alpha_i^vee> < 0 until g is dominant.  `row` holds <g, alpha_j^vee>
    for every node j and `g` the coordinates moved (a root's, or a weight's
    change), both updated in place: s_i, with c the pairing at i, subtracts
    c at coordinate i, negates row entry i and subtracts c*A[j][i] at each
    neighbour j.  Each step removes one of the finitely many beta > 0 of
    Phi_J with <g, beta^vee> < 0, so the walk ends within |Phi_J^+| steps
    (Humphreys, Reflection Groups and Coxeter Groups, 1.10-1.12)."""
    letters = []
    while (i := next((i for i in s if row[i] < 0), None)) is not None:
        letters.append(i)
        c = row[i]
        g[i], row[i] = g[i] - c, -c
        for j in d.neighbor_table[i]:
            row[j] -= c * d.cartan[j][i]
    return letters


def highest_root(d: AffineDiagram, nodes: Iterable[int]) -> Root:
    """Highest root of a connected finite subsystem, its one component's."""
    s = finite_nodes(d, nodes)
    if len(found := component_highest_roots(d, s)) != 1:
        raise ValueError(f"subsystem on {s} is not connected")
    return found[0][1]


def component_highest_roots(
    d: AffineDiagram, nodes: Iterable[int]
) -> list[tuple[tuple[int, ...], Root]]:
    """Each component of the finite subsystem on a proper node subset, in
    `components` order, with its highest root: the unique dominant long root
    (Humphreys, Introduction to Lie Algebras, 10.4), ascended to from a long simple root."""
    out = []
    for comp in components(d, finite_nodes(d, nodes)):
        longest = max(comp, key=lambda i: d.gram[i][i])  # the Gram diagonal is L * (a_i, a_i)
        g = list(simple_root(d, longest))
        _ascend(d, comp, [row[longest] for row in d.cartan], g)
        out.append((comp, tuple(g)))
    return out


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
    for _, theta in component_highest_roots(d, nodes):
        c = [x for x in theta if x]  # theta's support is the component
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
