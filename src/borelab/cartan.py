"""Affine Cartan matrices of twist order 1 and 2, with their numerical data.

A diagram is identified by a label like ``"E8~1"`` or ``"D5~2"``: base letter
A-G, base rank in ASCII decimal with no leading zero, ``~``, and the twist order
as one digit.  Node numbering follows the usual affine tables
(node 0 is the added node on untwisted diagrams).  The Cartan matrix convention
is ``cartan[i][j] = <alpha_j, alpha_i^vee>``.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

Matrix = tuple[tuple[int, ...], ...]

_LABEL_RE = re.compile(r"([A-G])([0-9]+)~([0-9])")


class AffineDiagram:
    """An affine generalized Cartan matrix together with derived integer data.

    The derived tables are built once, by the constructor: `nodes`, each
    node's neighbors, the simple roots, and the integer Gram rows
    `gram[i][j] = L * d_i * A[i][j]`, where d_i is the symmetrizer and
    L = `form_scale` the least common multiple of its denominators, so that
    L * (a, b) is an integer for integer a and b.  d_i is comark_i / mark_i
    scaled so that its largest value is 1 (Kac, Infinite-dimensional Lie
    algebras, Sec. 6.2); L and L * d_i are computed from the marks and
    comarks in integers.  Equality and hashing read only the label, the
    Cartan matrix and the twist.
    """

    def __init__(self, label: str, cartan: Matrix, twist: int,
                 marks: tuple[int, ...], comarks: tuple[int, ...]):
        self.label = label
        self.cartan = cartan
        self.twist = twist
        self.marks = marks
        self.comarks = comarks
        nodes = self.nodes = range(len(cartan))
        # d_i = (c_i / m_i) / (c_t / m_t) = c_i * m_t / (m_i * c_t), t a node
        # with the largest ratio (compared by cross-multiplying); its reduced
        # denominator is m_i * c_t / gcd(c_i * m_t, m_i * c_t)
        t = 0
        for i in nodes:
            if comarks[i] * marks[t] > comarks[t] * marks[i]:
                t = i
        nums = [c * marks[t] for c in comarks]
        dens = [m * comarks[t] for m in marks]
        scale = lcm(*(b // gcd(a, b) for a, b in zip(nums, dens)))
        sym = [scale * a // b for a, b in zip(nums, dens)]  # L * d_i
        self.neighbor_table = tuple(
            tuple(j for j in nodes if j != i and cartan[i][j]) for i in nodes)
        self.simple_roots = tuple(tuple(int(i == j) for j in nodes) for i in nodes)
        self.gram = tuple(tuple(s * x for x in row) for s, row in zip(sym, cartan))
        self.form_scale = scale

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineDiagram):
            return NotImplemented
        return (self.label, self.cartan, self.twist) == (other.label, other.cartan, other.twist)

    def __hash__(self) -> int:
        return hash((self.label, self.cartan, self.twist))

    @property
    def symmetrizer(self) -> tuple[Fraction, ...]:
        """The d_i as Fractions, read off the Gram diagonal 2 * L * d_i."""
        from fractions import Fraction

        return tuple(Fraction(self.gram[i][i] // 2, self.form_scale) for i in self.nodes)

    @property
    def size(self) -> int:
        """Number of nodes (affine rank + 1)."""
        return len(self.cartan)

    def __repr__(self) -> str:  # pragma: no cover
        return f"AffineDiagram({self.label!r})"


def _breadth_first(nbrs: Mapping[int, Sequence[int]] | Sequence[Sequence[int]],
                   start: int) -> tuple[list[int], dict[int, int]]:
    """Nodes reached from `start` in breadth-first order, and their parents."""
    order, parent = [start], {start: start}
    for i in order:
        for j in nbrs[i]:
            if j not in parent:
                parent[j] = i
                order.append(j)
    return order, parent


def _kernel_vector(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The primitive positive integer a with A*a = 0, A the Cartan matrix of a
    connected affine diagram, or a ValueError naming the cause.  A tree (each
    supported diagram but the cycle A_n~1, n >= 2, marks all 1) is read leaves
    first from node 0: a_i = a_p * q_i for i's parent p, q_i = -A[i][p] /
    pivot_i, pivot_i = A[i][i] + sum of A[i][c] * q_c over i's children c.
    Certified in O(edges): connected, pivots > 0, A*a = 0 and a > 0 fix a
    (Kac, Infinite-dimensional Lie algebras, Thm 4.3)."""
    def reduced(x: int, y: int) -> tuple[int, int]:
        return x // gcd(x, y), y // gcd(x, y)

    n = len(matrix)
    nbrs = [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(matrix)]
    order, parent = _breadth_first(nbrs, 0)
    if len(order) != n:
        raise ValueError(f"matrix is not connected: node 0 reaches {len(order)} of {n} nodes")
    num, den = [1] * n, [1] * n  # q_i, then a_i / a_0; on the cycle, all 1
    if sum(map(len, nbrs)) == 2 * n - 2:  # a tree
        pn, pd = [row[i] for i, row in enumerate(matrix)], [1] * n  # pivots
        for i in reversed(order[1:]):
            if pn[i] <= 0:
                raise ValueError(f"no positive kernel vector: pivot {pn[i]}/{pd[i]} at node {i}")
            p = parent[i]
            num[i], den[i] = reduced(-matrix[i][p] * pd[i], pn[i])
            pn[p], pd[p] = reduced(pn[p] * den[i] + matrix[p][i] * num[i] * pd[p], pd[p] * den[i])
        for i in order[1:]:
            num[i], den[i] = reduced(num[i] * num[parent[i]], den[i] * den[parent[i]])
    scale = lcm(*den)  # a is primitive: each a_i / a_0 is reduced, and a_0 / a_0 = 1
    a = [u * scale // v for u, v in zip(num, den)]
    if min(a) <= 0:
        raise ValueError(f"no positive kernel vector: candidate {a} is not positive")
    for i, row in enumerate(matrix):
        if row[i] * a[i] + sum(row[j] * a[j] for j in nbrs[i]):
            raise ValueError(f"no positive kernel vector: row {i} of A*a is not 0")
    return tuple(a)


def _bonds_to_cartan(size: int, bonds: Iterable[tuple[int, int, int, int]]) -> Matrix:
    """Build the Cartan matrix from (i, j, A[i][j], A[j][i]) bond entries."""
    a = [[2 if i == j else 0 for j in range(size)] for i in range(size)]
    for i, j, aij, aji in bonds:
        a[i][j] = aij
        a[j][i] = aji
    return tuple(tuple(row) for row in a)


def _chain(lo: int, hi: int) -> list[tuple[int, int, int, int]]:
    """Single bonds lo-(lo+1)-...-hi."""
    return [(i, i + 1, -1, -1) for i in range(lo, hi)]


def _build(label: str, letter: str, rank: int, twist: int) -> AffineDiagram:
    bonds: list[tuple[int, int, int, int]]
    if twist == 1:
        if letter == "A" and rank == 1:
            size, bonds = 2, [(0, 1, -2, -2)]
        elif letter == "A" and rank >= 2:
            size = rank + 1
            bonds = _chain(0, rank) + [(rank, 0, -1, -1)]
        elif letter == "B" and rank == 2:
            # theta of B2 meets the short simple root, so node 0 hangs there.
            size, bonds = 3, [(0, 2, -1, -2), (1, 2, -1, -2)]
        elif letter == "B" and rank >= 3:
            size = rank + 1
            bonds = [(0, 2, -1, -1), (1, 2, -1, -1)] + _chain(2, rank - 1)
            bonds += [(rank - 1, rank, -1, -2)]
        elif letter == "C" and rank >= 2:
            size = rank + 1
            bonds = [(0, 1, -1, -2)] + _chain(1, rank - 1) + [(rank - 1, rank, -2, -1)]
        elif letter == "D" and rank >= 4:
            size = rank + 1
            bonds = [(0, 2, -1, -1), (1, 2, -1, -1)] + _chain(2, rank - 2)
            bonds += [(rank - 2, rank - 1, -1, -1), (rank - 2, rank, -1, -1)]
        elif letter == "E" and rank == 6:
            size, bonds = 7, _chain(1, 5) + [(3, 6, -1, -1), (6, 0, -1, -1)]
        elif letter == "E" and rank == 7:
            size, bonds = 8, _chain(0, 6) + [(3, 7, -1, -1)]
        elif letter == "E" and rank == 8:
            size, bonds = 9, _chain(0, 7) + [(5, 8, -1, -1)]
        elif letter == "F" and rank == 4:
            size, bonds = 5, _chain(0, 2) + [(2, 3, -1, -2), (3, 4, -1, -1)]
        elif letter == "G" and rank == 2:
            size, bonds = 3, [(0, 1, -1, -1), (1, 2, -1, -3)]
        else:
            raise ValueError(f"unsupported untwisted diagram {label!r}")
    elif twist == 2:
        if letter == "A" and rank == 2:
            size, bonds = 2, [(0, 1, -4, -1)]
        elif letter == "A" and rank >= 4 and rank % 2 == 0:
            m = rank // 2
            size = m + 1
            bonds = [(0, 1, -2, -1)] + _chain(1, m - 1) + [(m - 1, m, -2, -1)]
        elif letter == "A" and rank >= 5 and rank % 2 == 1:
            m = (rank + 1) // 2
            size = m + 1
            bonds = [(0, 2, -1, -1), (1, 2, -1, -1)] + _chain(2, m - 1)
            bonds += [(m - 1, m, -2, -1)]
        elif letter == "A" and rank == 3:
            raise ValueError("A3~2 is listed as D3~2; use that label")
        elif letter == "D" and rank >= 3:
            size = rank
            bonds = [(0, 1, -2, -1)] + _chain(1, rank - 2)
            bonds += [(rank - 2, rank - 1, -1, -2)]
        elif letter == "E" and rank == 6:
            size, bonds = 5, _chain(0, 2) + [(2, 3, -2, -1), (3, 4, -1, -1)]
        else:
            raise ValueError(f"unsupported twisted diagram {label!r}")
    else:
        raise ValueError(
            f"{label!r}: twist order {twist} not supported; the grading involution"
            " has order at most 2"
        )
    cartan = _bonds_to_cartan(size, bonds)
    marks = _kernel_vector(cartan)
    comarks = _kernel_vector([list(col) for col in zip(*cartan)])
    return AffineDiagram(label, cartan, twist, marks, comarks)


def load_diagram(label: str) -> AffineDiagram:
    """Build an affine diagram by label, e.g. "B3~1", "A4~2", "E6~2"."""
    m = _LABEL_RE.fullmatch(label)
    if not m:
        raise ValueError(f"bad diagram label {label!r}; expected e.g. 'D5~2'")
    letter, rank, twist = m.groups()
    if rank != str(int(rank)):
        raise ValueError(f"bad diagram label {label!r}: rank {rank} has a leading zero")
    return _build(label, letter, int(rank), int(twist))


def dual_coxeter_number(d: AffineDiagram) -> int:
    """Sum of comarks: the dual Coxeter number attached to the affine diagram."""
    return sum(d.comarks)


def components(d: AffineDiagram, nodes: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Connected components of the induced subdiagram, ordered by least node:
    the sets `_breadth_first` reaches along the neighbour lists induced on it.
    ValueError names the numbers in `nodes` that are not nodes."""
    s = set(nodes)
    if bad := sorted(i for i in s if i not in d.nodes):
        raise ValueError(f"{bad} are not nodes of {d.label}, whose nodes are 0..{d.size - 1}")
    nbrs = {i: [j for j in d.neighbor_table[i] if j in s] for i in s}
    out, reached = [], set()
    for i in sorted(s):
        if i not in reached:
            order = _breadth_first(nbrs, i)[0]
            reached.update(order)
            out.append(tuple(sorted(order)))
    return tuple(out)


def diagram_automorphisms(d: AffineDiagram) -> tuple[tuple[int, ...], ...]:
    """All node permutations pi with A[pi(i)][pi(j)] = A[i][j], as tuples.

    Nodes are placed in breadth-first order from node 0: node 0 goes to any
    node, each later node to an unused neighbor of its parent's image with as
    many neighbors as it has.  A candidate is compared only on its edges to
    placed nodes, in both directions of A, so each edge is compared when its
    later end is placed.  That is enough: a bijection of the nodes mapping
    every edge to an edge maps the edges onto the edges, so non-edges to
    non-edges."""
    a, nbrs = d.cartan, d.neighbor_table
    order, parent = _breadth_first(nbrs, 0)
    perm = [-1] * d.size
    used: set[int] = set()
    result: list[tuple[int, ...]] = []

    def place(k: int) -> None:
        if k == len(order):
            result.append(tuple(perm))
            return
        i = order[k]
        for img in nbrs[perm[parent[i]]] if k else d.nodes:
            if img in used or len(nbrs[img]) != len(nbrs[i]) or not all(
                a[img][perm[j]] == a[i][j] and a[perm[j]][img] == a[j][i]
                for j in nbrs[i] if perm[j] >= 0
            ):
                continue
            perm[i] = img
            used.add(img)
            place(k + 1)
            used.remove(img)
        perm[i] = -1

    place(0)
    return tuple(sorted(result))


def finite_nodes(d: AffineDiagram, nodes: Iterable[int]) -> list[int]:
    """J = `nodes` sorted, a proper subset of the diagram's nodes (ValueError
    otherwise): every proper subdiagram of a connected affine diagram is of
    finite type (Kac, Infinite-dimensional Lie algebras, Lemma 4.5), so W_J and
    Phi_J are finite and walks in them end.  Every finite-parabolic function
    decides it here."""
    s = sorted(set(nodes))
    if len(s) >= d.size or s and (s[0] < 0 or s[-1] >= d.size):
        raise ValueError(f"nodes {s} are not a proper subset of {d.label}'s nodes {list(d.nodes)}")
    return s
