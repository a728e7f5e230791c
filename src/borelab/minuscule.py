"""The checks that `verify_all` runs on a poset; only `verify` and a JSON `export` load them."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Sequence

from .cartan import dual_coxeter_number
from .grading import GradedContext
from .poset import MinusculePoset, maxima_parametrization
from .roots import Root, coroot_pair, highest_root, positive_root_count, scale, sub
from .roots import theta_dual_coxeter, weyl_group_order
from .weyl import _right_mult_simple, identity, pack, unpack


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _verdict(name: str, problems: list[str], ok: str) -> CheckResult:
    """Passed with the detail `ok` when there are no problems, else failed
    with the first problem as its detail."""
    return CheckResult(name, not problems, problems[0] if problems else ok)


def verify_all(poset: MinusculePoset, structural_limit: Optional[int] = None) -> list[CheckResult]:
    """Run every structural check; a truncated poset fails the check `complete`.
    `structural_limit` (None: every element) stays only for the benchmark
    child's `inspect` read; ROADMAP item 1 deletes it with `_verify_steps`."""
    if not poset.complete:
        return [CheckResult("complete", False, poset.truncation())]
    out = [
        check_bounding_equivalence(poset),
        check_poset_basics(poset),
        check_pairing_structure(poset.ctx),
        check_family_minima(poset),
        check_family_completeness(poset),
        check_coset_isomorphism(poset),
        check_intersections(poset),
        check_maxima(poset),
        check_length_identities(poset.ctx),
        check_special_involutions(poset.ctx),
        check_structural(poset, structural_limit),
        check_family_coverage(poset),
    ]
    ctx = poset.ctx
    if ctx.k == 1 and len(ctx.odd) == 2:
        out.append(check_hermitian_half(poset))
    if ctx.spec.adjoint:
        out.append(check_adjoint_count(poset))
    return out


def check_bounding_equivalence(poset: MinusculePoset) -> CheckResult:
    """Avoiding the bounding roots must carve out exactly the same poset.

    The wall-avoiding BFS keys each element by its inversion mask; a new
    inversion outside S1, or a mask no stored element has (`by_mask`), is an
    element outside the poset.  Every mask it keeps is one of the poset's, so
    the walk ends, and it steps on to that element's stored columns rather
    than building them.  So it relies on `check_poset_basics`, which
    certifies the identity and every stored column against its parent's."""
    ctx = poset.ctx
    blocked = {pack(a) for a in ctx.bounding_roots()}
    bits, masks, cols, by_mask = ctx.s1_bits, poset.masks, poset.cols, poset.by_mask
    seen, queue, ok = {0}, [0], True
    for p in queue:  # appended to as it is read: breadth-first
        mask = masks[p]
        for col in cols[p]:
            if col < 0 or col in blocked:
                continue
            b = bits.get(col)
            q = None if b is None else by_mask.get(mask | b)
            if q is None or masks[q] != mask | b:
                ok = False
                break
            if q not in seen:
                seen.add(q)
                queue.append(q)
        if not ok:
            break
    return CheckResult("bounding_equivalence", ok and len(seen) == len(poset),
                       f"wall-avoiding enumeration found {len(seen)} of {len(poset)} elements")


def check_poset_basics(poset: MinusculePoset) -> CheckResult:
    """The stored form against the group, from the identity up: each element
    p > 0 is its parent q < p times s_i, i its last letter, so q's column i
    is a root of S1 outside q's mask, p's mask is q's with it, and p's
    columns are q's times s_i.  The check stops at the first parent that
    does not come earlier, so every word it spells is a walk along checked
    parents, which ends.  A cover's target, mask | b at an S1 column's step,
    is checked by `check_bounding_equivalence`."""
    d, bits = poset.ctx.d, poset.ctx.s1_bits
    masks, cols = poset.masks, poset.cols
    problems = []
    if masks[0] or cols[0] != identity(d):
        problems.append("missing identity")
    for p in range(1, len(poset)):
        q, i = poset.parents[p], poset.letters[p]
        if not (0 <= q < p and i in d.nodes):
            problems.append(f"element {p}: parent {q} is not earlier or letter {i} is not a node")
            return _verdict("poset_basics", problems, "")
        b = bits.get(cols[q][i])
        if b is None:
            problems.append(f"inversion outside odd height 1 at {poset.word(p)}")
        elif masks[q] & b:
            problems.append(f"length mismatch at {poset.word(p)}")
        elif masks[p] != masks[q] | b:
            problems.append(f"inversion set mismatch at {poset.word(p)}")
        elif cols[p] != _right_mult_simple(d, cols[q], i):
            problems.append(f"column mismatch at {poset.word(p)}")
    return _verdict("poset_basics", problems,
                    f"{len(poset)} elements, {poset.cover_count} covers")


def check_pairing_structure(ctx: GradedContext) -> CheckResult:
    """Simple-root pairings with each component highest coroot take only the
    structured values: eps on the boundary, 0 elsewhere inside the even set,
    and a single common negative on the odd nodes."""
    problems = []
    for comp in ctx.components:
        for j in ctx.d.nodes:
            t = comp.pairing_row[j]
            if j in ctx.odd:
                if t != -comp.level:
                    problems.append(
                        f"comp {comp.index}: odd node {j} pairs {t}, expected {-comp.level}"
                    )
            elif t not in (0, comp.eps):
                problems.append(f"comp {comp.index}: even node {j} pairs {t}")
        if comp.wall_included != (comp.level <= 2):
            problems.append(f"comp {comp.index}: inclusion/level mismatch")
    return _verdict("pairing_structure", problems,
                    f"{len(ctx.components)} components structured")


def check_family_minima(poset: MinusculePoset) -> CheckResult:
    ctx = poset.ctx
    problems = []
    for a, wall in ctx.families:
        fam = poset.family(a, wall)
        if not fam:
            problems.append(f"family ({a}, wall {wall.index}) empty")
            continue
        pos = poset.position(ctx.family_minima[a, wall.index])
        if pos is None or pos not in fam:
            problems.append(f"closed-form minimum not in family ({a}, {wall.index})")
            continue
        if any(poset.masks[pos] & ~poset.masks[q] for q in fam):
            problems.append(f"({a}, wall {wall.index}): minimum not below all members")
    return _verdict("family_minima", problems, "every family has its closed-form minimum")


def check_family_completeness(poset: MinusculePoset) -> CheckResult:
    """No family may exist at (alpha, wall) outside the predicted index set."""
    walls = poset.ctx.walls
    problems = [
        f"unexpected family ({a}, wall {index})"
        for a, index in sorted(poset._family_table, key=lambda key: key[::-1])
        if a not in walls[index - 1].heads
    ]
    return _verdict("family_completeness", problems,
                    "families appear exactly at predicted indices")


def coset_translates(
    poset: MinusculePoset,
    start: Optional[int],
    ambient: Iterable[int],
    subgroup: Sequence[Root],
) -> Optional[list[int]]:
    """The positions of the translates m*u of the minimal representatives u
    of W'\\W(ambient), where m is the element at `start`; None if `start`
    is None or a translate is not in the poset.

    W' is the reflection subgroup on the simple system `subgroup`: u is
    minimal iff u^{-1} beta > 0 for each subgroup simple beta (Deodhar's
    lemma; Humphreys, Reflection Groups and Coxeter Groups, 1.10).  These u
    are closed under prefixes, so they grow from the identity by ascents
    u -> u*s_i, u(alpha_i) > 0.  As s_i makes negative only the positive
    multiples of alpha_i, for u minimal s_i u^{-1} beta < 0 iff beta =
    c*u(alpha_i), c > 0, and c = 1 as alpha_i is simple and each beta a
    primitive vector: u*s_i is minimal iff u(alpha_i) is no subgroup simple.
    m*u*s_i is m*u stepped through node i (`MinusculePoset.step`).  As
    u -> m*u is injective and a position names one element (`by_mask`), u
    is keyed by its translate's position; a translate outside the poset is
    no family member, and the walk stops there.
    """
    if start is None:
        return None
    d = poset.ctx.d
    simples = {pack(beta) for beta in subgroup}
    seen = {start}
    queue = [(poset.cols[0], start)]  # the identity's columns
    for u, img in queue:  # appended to as it is read: breadth-first
        for i in ambient:
            col = u[i]
            if col < 0 or col in simples:
                continue
            tgt = poset.step(img, i)
            if tgt is None:
                return None
            if tgt not in seen:
                seen.add(tgt)
                queue.append((_right_mult_simple(d, u, i), tgt))
    return [img for _, img in queue]


def check_coset_isomorphism(poset: MinusculePoset) -> CheckResult:
    """Each family is order-isomorphic to the minimal coset representatives of
    its stabilizer quotient, via left translation by the family minimum m.

    Each translate from `coset_translates` is its parent's stepped through
    one node, adding one inversion, so l(m*u) = l(m) + l(u) and N(m*u) is
    N(m) and m N(u), disjoint.  Weak order is inclusion of inversion sets
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, 3.1.3), so
    N(m*u) <= N(m*v) iff N(u) <= N(v): translation preserves and reflects
    order, and is injective.  As many cosets as members, each translate a
    member, make it an isomorphism onto the family.  No group product is
    formed; the minimum is the only element looked up by its word."""
    ctx = poset.ctx
    problems = []
    for a, wall in ctx.families:
        fam = poset.family(a, wall)
        if not fam:
            continue
        start = poset.position(ctx.family_minima[a, wall.index])
        reps = coset_translates(poset, start, *ctx.quotient_data(a, wall))
        if reps is not None and len(reps) != len(fam):
            problems.append(
                f"({a}, wall {wall.index}): {len(reps)} cosets vs {len(fam)} members")
        elif reps is None or not set(fam).issuperset(reps):
            problems.append(f"({a}, wall {wall.index}): translate of coset rep leaves family")
    return _verdict("coset_isomorphism", problems, "families are translated coset posets")


def check_intersections(poset: MinusculePoset) -> CheckResult:
    """Pairwise family intersections: exact nonemptiness criterion, the
    closed-form minimum, its inversion set, and the cardinality ratio."""
    ctx = poset.ctx
    masks = poset.masks
    problems = []
    # each family minimum placed once, on the walls that crossed pairs join
    placed = {(a, w.index): poset.position(ctx.family_minima[a, w.index])
              for w in dict.fromkeys(w for p in ctx.pairs for w in p[2:]) for a in w.heads}
    # F(a, wa) & F(b, wb) is nonempty iff (b, a, wa, wb) is a crossed pair,
    # whose minimum is then u*v_b*v_a
    crossed = {(x, y, w1.index, w2.index): low
               for (x, y, w1, w2), low in zip(ctx.pairs, ctx.pair_minimum_words)}
    for wa, wb in combinations(ctx.walls, 2):
        for a in wa.heads:
            fam_a = set(poset.family(a, wa))
            for b in wb.heads:
                inter = fam_a.intersection(poset.family(b, wb))
                where = f"intersection ({a},{wa.index})&({b},{wb.index})"
                low = crossed.get((b, a, wa.index, wb.index))
                if bool(inter) != (low is not None):
                    problems.append(
                        f"{where}: {'nonempty' if inter else 'empty'}, predicted otherwise")
                    continue
                if not inter:
                    continue
                pos = poset.position(low)
                if pos is None or pos not in inter:
                    problems.append(f"{where}: bad minimum")
                    continue
                if any(masks[pos] & ~masks[q] for q in inter):
                    problems.append(f"{where}: not minimal")
                pa, pb = placed[a, wa.index], placed[b, wb.index]
                if pa is None or pb is None or masks[pos] != masks[pa] | masks[pb]:
                    problems.append(
                        f"{where}: inversions are not the union of the family minima's")
                inner, common = ctx.common_nodes(ctx.perp_nodes(a), ctx.perp_nodes(b))
                expect = weyl_group_order(ctx.d, common) // weyl_group_order(ctx.d, inner)
                if len(inter) != expect:
                    problems.append(f"{where}: size {len(inter)} vs predicted {expect}")
    return _verdict("intersections", problems,
                    "intersection criterion, minima, and sizes agree")


def check_maxima(poset: MinusculePoset) -> CheckResult:
    """Each closed-form maximum, placed by its word, is a member of its family
    (for a crossed pair, of the two families' intersection) whose inversions
    contain every member's, of the closed-form dimension; the placed maxima
    are the poset's maximal elements, each once."""
    try:
        items = maxima_parametrization(poset)
    except ValueError as exc:
        return CheckResult("maxima_parametrization", False, str(exc))
    walls, masks = poset.ctx.walls, poset.masks
    problems = []
    for it in items:
        first, *rest = (poset.family(a, walls[w - 1]) for a, w in zip(it.alphas, it.wall_indices))
        members, top = set(first).intersection(*rest), masks[it.position]
        if it.position not in members:
            problems.append(f"{it.label}: closed-form element outside its family")
        elif any(masks[q] & ~top for q in members):
            problems.append(f"{it.label}: closed-form element is not its family's top")
        if top.bit_count() != it.dimension:
            problems.append(
                f"{it.label}: closed-form dimension {it.dimension} vs length {top.bit_count()}")
    positions = [it.position for it in items]
    if len(set(positions)) != len(positions):
        problems.append("parametrization hits a maximal element twice")
    if set(positions) != set(poset.maxima):
        problems.append(f"parametrized {len(set(positions))} maxima, "
                        f"enumeration has {len(poset.maxima)}")
    return _verdict("maxima_parametrization", problems,
                    f"{len(items)} maxima parametrized with exact dimensions")


def check_length_identities(ctx: GradedContext) -> CheckResult:
    g0 = dual_coxeter_number(ctx.d)
    problems = []
    for a, wall in ctx.families:
        length, expect = len(ctx.family_minima[a, wall.index]), ctx.minimum_length(wall)
        if length != expect:
            problems.append(
                f"({a}, wall {wall.index}): minimum length {length}, expected {expect}")
    for wall in ctx.walls:
        if wall.kind == "component" and wall.wall_type == 1:
            comp = wall.component
            region_g = theta_dual_coxeter(ctx.d, highest_root(ctx.d, comp.region))
            if region_g != g0 - comp.sub_dual_coxeter + 2:
                problems.append(
                    f"comp {comp.index}: region dual Coxeter {region_g} "
                    f"!= {g0 - comp.sub_dual_coxeter + 2}"
                )
    # l(u) = l(w0(J)) - l(w0(J')), lengths adding in w0(J) = w0(J')*u, on
    # the wall pairs of the crossed pairs; `ctx.pair_minimum_words` builds u
    for wa, wb in dict.fromkeys(p[2:] for p in ctx.pairs):
        ca, cb = wa.component, wb.component
        inner, inter = ctx.common_nodes(ca.region, cb.region)
        length = positive_root_count(ctx.d, inter) - positive_root_count(ctx.d, inner)
        expect = g0 - ca.sub_dual_coxeter - cb.sub_dual_coxeter + 2
        if length != expect:
            problems.append(f"u({ca.index},{cb.index}): length {length} != {expect}")
    return _verdict("length_identities", problems,
                    "family-minimum and pair-element lengths match")


def check_special_involutions(ctx: GradedContext) -> CheckResult:
    """Each type-2 special element s, walked on packed columns from the
    identity along its word, keeps the column each letter steps through: its
    inversions, so a negative one means the word is not reduced
    (RuntimeError).  Packing is linear, so s sends a packed vector v to the
    sum of v_j * cols[j].  s must be an involution (its word walked again from
    its columns returns the identity's), send theta to the wall root, have
    the closed-form length and inversion set, and for k = 2 be the
    reflection in beta = delta - theta: alpha_j -> alpha_j - <alpha_j, beta^vee> beta."""
    d = ctx.d
    g0 = dual_coxeter_number(d)
    one = identity(d)
    problems = []
    for wall in ctx.walls:
        if wall.kind != "component" or wall.wall_type != 2:
            continue
        comp = wall.component
        word = ctx.special_involution(comp)
        cols, inversions = one, []
        for n, i in enumerate(word, start=1):
            if cols[i] < 0:
                raise RuntimeError(f"word {word[:n]} is not reduced")
            inversions.append(cols[i])
            cols = _right_mult_simple(d, cols, i)
        twice = cols
        for i in word:
            twice = _right_mult_simple(d, twice, i)
        if twice != one:
            problems.append(f"comp {comp.index}: special element is not an involution")
        # s(theta) = sum of theta_t * s(alpha_t), in coordinates: every
        # column is within the packed bound, so `unpack` reads it exactly
        image = map(sum, zip(*(scale(t, unpack(col, d.size)) for t, col in zip(comp.theta, cols))))
        if tuple(image) != wall.root:
            problems.append(f"comp {comp.index}: wrong image of the highest root")
        if len(word) != g0 - comp.sub_dual_coxeter + 1:
            problems.append(
                f"comp {comp.index}: length {len(word)} != {g0 - comp.sub_dual_coxeter + 1}"
            )
        predicted = {
            col
            for col, g in zip(ctx.s1_bits, ctx.s1_order)
            if sum(comp.pairing_row[i] * c for i, c in enumerate(g)) == -2
        }
        if set(inversions) != predicted:
            problems.append(f"comp {comp.index}: inversion set mismatch")
        if ctx.k == 2:
            beta = sub(ctx.delta, comp.theta)
            if cols != tuple(pack(sub(e, scale(coroot_pair(d, beta, e), beta)))
                             for e in d.simple_roots):
                problems.append(
                    f"comp {comp.index}: not the reflection in delta minus theta"
                )
    return _verdict("special_involutions", problems,
                    "special involutions match their closed forms")


def structural_masks(ctx: GradedContext) -> tuple[list[int], list[int]]:
    """(partner, down): masks over `ctx.s1_order` that decide the structural check.

    For x the root at bit n, `partner[n]` holds the y in S1 with x + y a
    root, and `down[n]` the roots x - e in S1, e an even positive root:
    every split of x into two positive roots is an even root plus a root of
    S1.  Both are lookups in `ctx.graded_roots`, packed (`weyl.pack` is
    linear): x + y has odd height 2, so it is a root iff it is one of the
    closure's roots of odd height 2, k*delta included.
    """
    bits = ctx.s1_bits
    even = [pack(a) for a, g in ctx.graded_roots.items() if g == 0]
    two = [pack(a) for a, g in ctx.graded_roots.items() if g == 2]
    partner = [sum(filter(None, map(bits.get, map((-px).__add__, two)))) for px in bits]
    down = [sum(filter(None, map(bits.get, map(px.__sub__, even)))) for px in bits]
    return partner, down


def check_structural(poset: MinusculePoset, limit: Optional[int] = None) -> CheckResult:
    """Inversion sets are biconvex and pairwise-sum-free (abelian), each
    element one step from its parent: N(p) is N(q), q earlier, plus one root
    x.  With N(q) sum-free and biconvex, N(p) is sum-free iff no partner of x
    is in it, and then biconvex iff each x - e of S1 is.  Parents come first,
    so the first element that fails has a parent that passed: the check stops
    there, as a scan of its every member would.  `limit` k reads the first k
    positions, a lower set."""
    masks, parents = poset.masks, poset.parents
    n = len(poset) if limit is None else min(limit, len(poset))
    if masks[0]:
        return CheckResult("structural", False, "element 0: identity has inversions")
    partner, down = structural_masks(poset.ctx)
    for p in range(1, n):
        q, mask = parents[p], masks[p]
        x = mask ^ masks[q] if 0 <= q < p else 0
        if x & masks[q] or x.bit_count() != 1:
            problem = "inversion set is not its parent's plus one root"
        elif partner[x.bit_length() - 1] & mask:
            problem = "inversions sum to a root"
        elif down[x.bit_length() - 1] & ~mask:
            problem = "inversion set not biconvex"
        else:
            continue
        return CheckResult("structural", False, f"element {p}: {problem}")
    scope = "all" if n == len(poset) else f"{n} of {len(poset)}"
    return CheckResult("structural", True, f"{scope} inversion sets biconvex and sum-free")


def check_family_coverage(poset: MinusculePoset) -> CheckResult:
    """Every maximal element lies in at least one family.  A passing
    `check_maxima` implies it; it stays, as the result document lists it, and
    so do the recorded digests of `perfbench/workloads.py`."""
    covered = set().union(*poset._family_table.values())
    missing = [i for i in poset.maxima if i not in covered]
    return CheckResult(
        "family_coverage",
        not missing,
        f"{len(missing)} uncovered maxima" if missing else "all maximal elements covered",
    )


def check_hermitian_half(poset: MinusculePoset) -> CheckResult:
    """Each odd-wall maximum has half as many inversions as S1 has roots."""
    ctx = poset.ctx
    half, rem = divmod(len(ctx.odd_height_one_roots), 2)
    problems = ["odd height-1 root count is odd"] if rem else []
    try:
        problems += [f"{it.label}: top dimension {poset.length(it.position)} != {half}"
                     for it in maxima_parametrization(poset)
                     if it.kind == "odd" and poset.length(it.position) != half]
    except ValueError as exc:
        problems.append(str(exc))
    return _verdict("hermitian_half", problems,
                    f"odd-wall family tops all have dimension {half}")


def check_adjoint_count(poset: MinusculePoset) -> CheckResult:
    expect = 2 ** (poset.ctx.d.size - 1)
    ok = len(poset) == expect
    return CheckResult("adjoint_count", ok, f"{len(poset)} elements vs 2^rank = {expect}")
