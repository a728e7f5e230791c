"""Order-2 gradings of an affine diagram, their analysis and closed forms.

A grading is given by node flags (s_0, ..., s_n) in {0, 1} with
k * sum(s_i * a_i) = 2, where a_i are the marks and k is 1 or 2.  Nodes with
s_i = 1 form the odd set; the even nodes split into diagram components, each
carrying a highest root, a candidate wall k*delta - theta, and the attached
combinatorial data driving the family analysis.  `GradedContext` owns the
paper's closed forms next to their index: family minima, intersection minima
and maxima, each a reduced word built once per context.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, groupby
from typing import Iterable, NamedTuple, Optional

from .cartan import AffineDiagram, components as diagram_components
from .cartan import diagram_automorphisms, dual_coxeter_number, load_diagram
from .roots import (
    Root,
    component_highest_roots,
    coroot_pair,
    form,
    is_long,
    longest_quotient,
    positive_root_count,
    raising_closure,
    simple_root,
    theta_dual_coxeter,
)
from .weyl import dominant_mapper, pack


class InvolutionSpec:
    """Node flags defining an order-2 grading of the loop algebra.  Equality
    and hashing read the diagram, the flags and the adjoint flag."""

    def __init__(self, diagram: AffineDiagram, flags: tuple[int, ...], adjoint: bool = False):
        self.diagram = diagram
        self.flags = flags
        self.adjoint = adjoint
        d = self.diagram
        if len(self.flags) != d.size or any(s not in (0, 1) for s in self.flags):
            raise ValueError("flags must be one 0/1 value per node")
        weight = sum(s * a for s, a in zip(self.flags, d.marks))
        if weight not in (1, 2):
            raise ValueError(f"flag weight {weight} does not define an order-2 grading")
        if weight == 2 and d.twist != 1:
            raise ValueError(f"flag weight 2 requires an untwisted diagram; {d.label} is twisted")
        if weight == 2 and self.adjoint:
            raise ValueError("an adjoint grading (--adjoint) has flag weight 1, not 2")
        if weight == 1 and d.twist == 1 and not self.adjoint:
            raise ValueError("flag weight 1 on an untwisted diagram is an adjoint grading; "
                             "it needs adjoint=True (--adjoint)")
        if d.twist == 2 and self.adjoint:  # of flag weight 1: weight 2 was refused above
            raise ValueError("adjoint gradings (--adjoint) only exist on untwisted diagrams")

    def _key(self) -> tuple:
        return self.diagram, self.flags, self.adjoint

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InvolutionSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"InvolutionSpec(diagram={self.diagram!r}, flags={self.flags!r}, "
                f"adjoint={self.adjoint!r})")

    @property
    def k(self) -> int:
        """2 divided by the flag weight; k*delta has odd height 2."""
        return 2 // sum(s * a for s, a in zip(self.flags, self.diagram.marks))

    @property
    def odd_nodes(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.flags) if s)

    @property
    def even_nodes(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.flags) if not s)

    def describe(self) -> str:
        tag = "adjoint " if self.adjoint else ""
        return f"{self.diagram.label} {tag}odd={{{','.join(map(str, self.odd_nodes))}}}"


def involution(d: AffineDiagram, odd: Iterable[int], adjoint: bool = False) -> InvolutionSpec:
    odd_set = set(odd)
    stray = sorted(odd_set.difference(d.nodes))
    if stray:
        raise ValueError(
            f"{d.label} has nodes 0..{d.size - 1}; no node {', '.join(map(str, stray))}"
        )
    return InvolutionSpec(d, tuple(1 if i in odd_set else 0 for i in d.nodes), adjoint)


def catalog_involutions(
    d: AffineDiagram, include_adjoint: bool = False, dedupe: bool = True
) -> tuple[InvolutionSpec, ...]:
    """All order-2 gradings of the diagram, optionally up to diagram symmetry,
    when the first candidate of each orbit, in catalog order, is kept."""
    ones = [i for i in d.nodes if d.marks[i] == 1]
    if d.twist == 1:
        keys = [((i,), False) for i in d.nodes if d.marks[i] == 2]
        keys += [(pair, False) for pair in combinations(ones, 2)]
        keys += [((i,), True) for i in ones if include_adjoint]
    else:
        keys = [((i,), False) for i in ones]
    if dedupe:
        autos = diagram_automorphisms(d)
        seen: set[tuple] = set()
        kept = []
        for odd, adjoint in keys:
            if (odd, adjoint) not in seen:
                kept.append((odd, adjoint))
                seen.update((tuple(sorted(p[i] for i in odd)), adjoint) for p in autos)
        keys = kept
    return tuple(involution(d, odd, adjoint) for odd, adjoint in keys)


class EvenComponent(NamedTuple):
    """A connected component of the even nodes, with its wall candidate."""

    index: int
    nodes: tuple[int, ...]
    theta: Root
    pairing_row: tuple[int, ...]  # <alpha_j, theta^vee> per node j
    level: int  # r: minus the pairing of an odd simple root with theta^vee
    eps: int  # 2 for a single-node component, else 1
    sub_dual_coxeter: int
    wall_included: bool
    region: tuple[int, ...]  # nodes of the attached subdiagram A
    region_in_component: tuple[int, ...]  # region nodes inside this component


class Wall(NamedTuple):
    """A non-simple bounding root: k*delta - theta, or k*delta + beta, with
    the simple nodes heading a nonempty family at it.

    Its blocked nodes are those whose reflections are excluded from family
    stabilizers at this wall: the simples pairing by 1 with the component's
    highest coroot for a type-1 wall, all odd nodes for a type-2 wall, and
    the defining odd node itself for an odd wall.

    Its tops are the heads whose family top is a maximal element, one
    entry each in the maxima parametrization: the type-1 region nodes inside
    the component for a type-1 component wall, every head otherwise."""

    index: int  # 1-based position in the wall list
    kind: str  # "component" or "odd"
    root: Root
    heads: tuple[int, ...]
    blocked: tuple[int, ...]
    tops: tuple[int, ...]
    component: Optional[EvenComponent] = None
    node: Optional[int] = None  # the odd simple node, for kind "odd"
    wall_type: int = 1


class ClosedFormMaximum(NamedTuple):
    """One entry of the maxima index, with its closed-form reduced word."""

    kind: str  # "component", "pair", "odd"
    alphas: tuple[int, ...]
    wall_indices: tuple[int, ...]
    word: tuple[int, ...]
    dimension: int
    label: str


class GradedContext:
    """Everything derived from one grading: components, walls, odd-height data."""

    def __init__(self, spec: InvolutionSpec):
        self.spec = spec
        self.d = spec.diagram
        self.k = spec.k
        self.odd = spec.odd_nodes
        self.even = spec.even_nodes
        self.delta = self.d.marks
        self.components = self._build_components()
        self.walls = self._build_walls()
        # the (alpha, wall) pairs heading a family: walls in order, heads in
        # order within a wall
        self.families = tuple((a, w) for w in self.walls for a in w.heads)
        # the crossed pairs (x, y, wa, wb) of two type-1 component walls,
        # x a type-1 node of wa's component and y one of wb's: the maximum
        # they index tops the intersection of the families F(x, wb), F(y, wa)
        type_one = [w for w in self.walls if w.kind == "component" and w.wall_type == 1]
        self.pairs = tuple(
            (x, y, wa, wb)
            for wa, wb in combinations(type_one, 2)
            for x in self.type_one_nodes(wa.component.nodes)
            for y in self.type_one_nodes(wb.component.nodes)
        )

    def is_complex(self, a: Root) -> bool:
        """Whether k = 2 and delta + a is a real root, for a real root a.  In
        an untwisted diagram delta + a always is one; in a twisted one iff a
        is not long (Kac, Infinite-dimensional Lie algebras, Prop. 6.3)."""
        return self.k == 2 and (self.d.twist == 1 or not is_long(self.d, a))

    def root_type(self, a: Root) -> int:
        """1 for long non-complex real roots, else 2."""
        if is_long(self.d, a) and not self.is_complex(a):
            return 1
        return 2

    def type_one_nodes(self, nodes: Iterable[int]) -> tuple[int, ...]:
        """Members of a node set whose simple root is long and stays real when
        shifted by delta (type 1)."""
        return tuple(i for i in nodes if self.root_type(simple_root(self.d, i)) == 1)

    def _build_components(self) -> tuple[EvenComponent, ...]:
        d = self.d
        out = []
        for idx, (nodes, theta) in enumerate(component_highest_roots(d, self.even), start=1):
            row = tuple(coroot_pair(d, theta, simple_root(d, j)) for j in d.nodes)
            eps = 2 if len(nodes) == 1 else 1
            level = -row[min(self.odd)]
            neg = [i for i in d.nodes if row[i] <= 0]
            region: set[int] = set()
            for comp in diagram_components(d, neg):
                if any(i in self.odd for i in comp):
                    region |= set(comp)
            out.append(
                EvenComponent(
                    index=idx,
                    nodes=nodes,
                    theta=theta,
                    pairing_row=row,
                    level=level,
                    eps=eps,
                    sub_dual_coxeter=theta_dual_coxeter(d, theta),
                    wall_included=form(d, theta, theta) >= d.form_scale,
                    region=tuple(sorted(region)),
                    region_in_component=tuple(sorted(region & set(nodes))),
                )
            )
        return tuple(out)

    def _build_walls(self) -> tuple[Wall, ...]:
        d, k, odd = self.d, self.k, self.odd
        walls = []
        for comp in self.components:
            if not comp.wall_included:
                continue
            root = tuple(k * m - t for m, t in zip(self.delta, comp.theta))
            wall_type = self.root_type(root)
            if wall_type == 1:
                heads = tuple(i for i in comp.region if is_long(d, simple_root(d, i)))
                blocked = tuple(i for i in d.nodes if comp.pairing_row[i] == 1)
                tops = self.type_one_nodes(comp.region_in_component)
            else:
                heads = tuple(
                    i for i in comp.nodes if is_long(d, simple_root(d, i), comp.nodes))
                blocked, tops = odd, heads
            walls.append(Wall(len(walls) + 1, "component", root, heads, blocked, tops,
                              component=comp, wall_type=wall_type))
        for b in odd:
            beta = simple_root(d, b)
            if self.root_type(beta) == 1:
                root = tuple(k * m + x for m, x in zip(self.delta, beta))
                heads = odd if len(odd) == 1 else tuple(i for i in odd if i != b)
                walls.append(Wall(len(walls) + 1, "odd", root, heads, (b,), heads, node=b))
        return tuple(walls)

    @cached_property
    def graded_roots(self) -> dict[Root, int]:
        """Every positive root of odd height at most 2, real or imaginary,
        mapped to its odd height (`roots.raising_closure` of the flags): the
        roots the structural check reads, as members (odd height 1), their
        differences (0) and their sums (2)."""
        return raising_closure(self.d, self.spec.flags, 2)

    @cached_property
    def even_positive_roots(self) -> frozenset[Root]:
        """Positive roots supported on the even nodes: those of odd height 0."""
        return frozenset(a for a, g in self.graded_roots.items() if not g)

    @cached_property
    def odd_height_one_roots(self) -> frozenset[Root]:
        """All positive real roots of odd height 1 (a finite set): those of the
        closure, less delta for k = 2.  These are the weights of the
        odd-height-1 part of the positive subalgebra as a module over the even
        part."""
        return frozenset(a for a, g in self.graded_roots.items() if g == 1) - {self.delta}

    @cached_property
    def s1_order(self) -> tuple[Root, ...]:
        """The odd-height-1 roots in a fixed order: root n is bit n of an
        inversion mask."""
        return tuple(sorted(self.odd_height_one_roots))

    @cached_property
    def s1_bits(self) -> dict[int, int]:
        """Each odd-height-1 root, packed (`weyl.pack`), mapped to its bit,
        1 << its place in `s1_order`."""
        return {pack(a): 1 << n for n, a in enumerate(self.s1_order)}

    def bounding_roots(self) -> frozenset[Root]:
        """Even simple roots plus wall roots; avoiding all of them in the
        inversion set characterizes the elements being enumerated."""
        out = {simple_root(self.d, i) for i in self.even}
        out.update(w.root for w in self.walls)
        return frozenset(out)

    def perp_nodes(self, alpha: int) -> tuple[int, ...]:
        """Nodes whose simple root is orthogonal to alpha's."""
        return tuple(i for i in self.d.nodes if i != alpha and self.d.cartan[i][alpha] == 0)

    def quotient_data(self, alpha: int, wall: Wall) -> tuple[tuple[int, ...], tuple[Root, ...]]:
        """Ambient nodes and subgroup simple system for the family at (alpha, wall).

        The subgroup simples are the perpendicular nodes minus the blocked
        nodes, plus the component's highest root in the starred situation
        (type-1 wall of a multi-node component, alpha outside both the
        component and the odd set).
        """
        perp = self.perp_nodes(alpha)
        reduced = tuple(i for i in perp if i not in wall.blocked)
        starred = [simple_root(self.d, i) for i in reduced]
        comp = wall.component
        if (
            wall.kind == "component"
            and wall.wall_type == 1
            and len(comp.nodes) > 1
            and alpha in comp.region
            and alpha not in comp.nodes
            and alpha not in self.odd
        ):
            starred.append(comp.theta)
        return perp, tuple(starred)

    def common_nodes(self, a: Iterable[int], b: Iterable[int]) -> tuple[list[int], list[int]]:
        """(J', J): J = the nodes in both a and b, J' = J minus the odd nodes;
        for a crossed pair, a and b are the nodes orthogonal to x and to y."""
        inter = sorted(set(a) & set(b))
        return [i for i in inter if i not in self.odd], inter

    def special_involution(self, comp: EvenComponent) -> tuple[int, ...]:
        """Reduced word of the shortest element sending the component's highest
        root to its wall root: w0(J')*w0(J) for J the region, J' = J minus the
        odd nodes (`minuscule.check_special_involutions` checks it)."""
        region = comp.region
        return longest_quotient(self.d, [i for i in region if i not in self.odd], region)

    def theta_mapper(self, comp: EvenComponent, x: int) -> tuple[int, ...]:
        """Reduced word of the shortest element of the component's parabolic
        sending alpha_x to its highest root."""
        v = dominant_mapper(self.d, comp.nodes, simple_root(self.d, x), comp.theta)
        if v is None:
            raise ValueError(
                f"alpha_{x} is not conjugate to the highest root of component {comp.index}")
        return v

    def minimum_length(self, wall: Wall) -> int:
        """Closed-form length of every family minimum at this wall."""
        g0 = dual_coxeter_number(self.d)
        if wall.kind == "component" and wall.wall_type == 1:
            return g0 - wall.component.sub_dual_coxeter
        return g0 - 1

    @cached_property
    def family_minima(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """(alpha, wall index) -> reduced word of the closed-form minimum of
        the family at (alpha, wall), for each of `families`, in its order."""
        d, out = self.d, {}
        for wall in self.walls:
            comp = wall.component
            for a in wall.heads:
                if wall.kind == "odd":
                    b = wall.node
                    # s_b * u, reduced: u = w0(perp_even) * w0(even) lies in
                    # W_even, so u^{-1}(alpha_b) is alpha_b plus even roots
                    low = (b,) + longest_quotient(
                        d, [i for i in self.even if d.cartan[i][b] == 0], self.even)
                elif wall.wall_type == 1:
                    low = dominant_mapper(d, comp.region, simple_root(d, a), wall.root)
                    if low is None:
                        raise ValueError(f"alpha_{a} does not reach the wall within its region")
                else:
                    low = self.special_involution(comp) + self.theta_mapper(comp, a)
                out[a, wall.index] = low
        return out

    @cached_property
    def pair_minimum_words(self) -> tuple[tuple[int, ...], ...]:
        """u*v_x*v_y, the minimum of F(x, wb) & F(y, wa), for each crossed pair
        (x, y, wa, wb) of `pairs`, as its factors' words end to end: u of the
        regions' `common_nodes` once per wall pair (the pairs come grouped by
        it), v_x and v_y theta mappers."""
        out: list[tuple[int, ...]] = []
        for (wa, wb), group in groupby(self.pairs, key=lambda pair: pair[2:]):
            ca, cb = wa.component, wb.component
            u = longest_quotient(self.d, *self.common_nodes(ca.region, cb.region))
            out += [u + self.theta_mapper(ca, x) + self.theta_mapper(cb, y)
                    for x, y, _, _ in group]
        return tuple(out)

    @cached_property
    def closed_form_maxima(self) -> tuple[ClosedFormMaximum, ...]:
        """The maximal elements in closed form, with no poset: component
        singles, crossed pairs, then odd singles.  Each is a minimum times
        w0(J')*w0(J), lengths adding: its word is the two words end to end,
        its dimension the minimum's closed-form length plus |Phi+_J| -
        |Phi+_J'|.  For a single (alpha, wall), alpha in `wall.tops`, that is
        the family minimum, J the nodes orthogonal to alpha and J' = J minus
        the wall's blocked nodes; for a crossed pair (x, y, wa, wb), u*v_x*v_y,
        of length h - 2 (h the dual Coxeter number), and (J', J)
        `common_nodes` of those orthogonal to x, y."""
        d = self.d
        out: list[ClosedFormMaximum] = []

        def add(kind, alphas, walls, low, low_length, inner, nodes, label):
            dim = low_length + positive_root_count(d, nodes) - positive_root_count(d, inner)
            out.append(ClosedFormMaximum(
                kind, alphas, walls, low + longest_quotient(d, inner, nodes), dim, label))

        def singles(kind):
            for wall in (w for w in self.walls if w.kind == kind):
                for a in wall.tops:
                    perp = self.perp_nodes(a)
                    add(kind, (a,), (wall.index,), self.family_minima[a, wall.index],
                        self.minimum_length(wall), [i for i in perp if i not in wall.blocked],
                        perp, f"alpha{a}@wall{wall.index}")

        singles("component")
        for (x, y, wa, wb), low in zip(self.pairs, self.pair_minimum_words):
            add("pair", (x, y), (wb.index, wa.index), low, dual_coxeter_number(d) - 2,
                *self.common_nodes(self.perp_nodes(x), self.perp_nodes(y)),
                f"alpha{x}&alpha{y}")
        singles("odd")
        return tuple(out)


def analyze(spec: InvolutionSpec) -> GradedContext:
    return GradedContext(spec)


def context_for(label: str, odd: Iterable[int], adjoint: bool = False) -> GradedContext:
    d = load_diagram(label)
    return GradedContext(involution(d, odd, adjoint))
