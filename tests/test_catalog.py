"""Whole-catalog oracles over every order-2 grading of the supported diagrams
up to rank 11: adjoint gradings included, none deduplicated (482 gradings).

They check the rules the library uses in place of a search against the
search itself (`oracles.root_kind`, the subsystem closure), the
components of node subsets against neighbour expansion
(`oracles.expanded_components`), the raising closure of each grading's roots against a norm-bounded scan
(`oracles.graded_root_scan`) and of each finite subsystem against the
reflection loop (`oracles.reflection_closure`), each wall's
family heads and blocked nodes against the case-by-case rules
(`oracles.family_indices`, `oracles.blocked_nodes`), the maxima index
(`Wall.tops`, `GradedContext.pairs`) against the wall-pair loops
(`oracles.family_tops`, `oracles.crossed_pairs`), the packed-column
BFS, the integer kernel and the symmetrizer against their tuple and
Fraction references, the numbers of positive roots and Weyl group elements
of every connected proper node subset against the type table
(`oracles.type_sizes`) of the type the all-pairs scan names
(`oracles.pairwise_classify_component`), the dominant ascent from every
simple root in each such subset against the walk that sums every pairing
again (`oracles.reflecting_ascent`), the word of w0(J')*w0(J) that
`roots.longest_quotient` walks from a weight against the letters the ascent
on packed columns appends after w0(J') (`oracles.column_quotient`), on the
acceptance labels and E6~1, E7~1 and E8~1, the structural
mask tables against the pairwise scan
(`oracles.pairwise_structural_masks`), the coset walk's minimality lookup
and the order kept by translation against reflecting every subgroup simple
and comparing every pair (`oracles.reflecting_coset_translates`,
`oracles.translation_keeps_order`), run
`verify_all` on every element of every poset, the structural check's
one step from each parent against the scan of every element's mask
(`oracles.per_mask_structural`), and compare gradings related by
a diagram automorphism, whose posets must be isomorphic.  The paper's
bijection is checked the other way too: every b0-stable abelian subspace of
the odd part, found by search (`oracles.abelian_subspace_masks`), is an
inversion set of the poset.  The order the family readers rely on is
checked as stored, and the completeness check against the wall-by-node
probe (`oracles.probed_family_completeness`).  Each closed-form word, which
the library walks only to place it, is walked here to an element of its
closed-form length.  Never shrink the
label list to make a failure go away.
"""

import copy
import random
import time
from collections import Counter
from itertools import combinations
from math import gcd, lcm

import pytest

from borelab.cartan import (
    components,
    diagram_automorphisms,
    dual_coxeter_number,
    load_diagram,
)
from borelab.grading import analyze, catalog_involutions
from borelab.minuscule import (
    check_bounding_equivalence,
    check_family_completeness,
    check_structural,
    coset_translates,
    structural_masks,
    verify_all,
)
from borelab.poset import enumerate_poset, maxima_parametrization
from borelab.roots import (
    add,
    dominant_ascent,
    finite_type_sizes,
    highest_root,
    longest_quotient,
    positive_root_count,
    raising_closure,
    simple_root,
    subsystem_closure,
    theta_dual_coxeter,
)
from borelab.report import result_document
from borelab.weyl import BOUND, pack, unpack
from oracles import (
    abelian_subspace_masks,
    blocked_nodes,
    column_bounding_equivalence,
    column_quotient,
    crossed_pairs,
    expanded_components,
    family_indices,
    family_tops,
    fraction_form,
    fraction_kernel_vector,
    fraction_symmetrizer,
    graded_root_scan,
    ht,
    integer_gram,
    is_real_root,
    maximal_by_sets,
    pairwise_classify_component,
    pairwise_structural_masks,
    per_mask_structural,
    permutation_automorphisms,
    probed_family_completeness,
    reflecting_ascent,
    reflecting_coset_translates,
    reflection_closure,
    root_kind,
    scan_poset,
    translation_keeps_order,
    tuple_family_table,
    type_dual_coxeter,
    type_sizes,
    word_element,
)

UNTWISTED = (
    [f"A{n}~1" for n in range(1, 10)]
    + [f"B{n}~1" for n in range(2, 9)]
    + [f"C{n}~1" for n in range(2, 9)]
    + [f"D{n}~1" for n in range(4, 10)]
    + ["E6~1", "E7~1", "E8~1", "F4~1", "G2~1"]
)
TWISTED = (
    ["A2~2"]
    + [f"A{n}~2" for n in range(4, 12)]
    + [f"D{n}~2" for n in range(3, 10)]
    + ["E6~2"]
)
LABELS = UNTWISTED + TWISTED
# the 18 labels of the acceptance sweep, and the exceptional untwisted ones
QUOTIENT_LABELS = [
    "A1~1", "A2~1", "A3~1", "A4~1", "A5~1", "B2~1", "B3~1", "B4~1",
    "C3~1", "D4~1", "D5~1", "G2~1", "F4~1",
    "A2~2", "A4~2", "A5~2", "D4~2", "D5~2",
    "E6~1", "E7~1", "E8~1",
]
# the labels whose every node permutation can be tried (7! = 5040 at most)
SMALL = [label for label in LABELS if load_diagram(label).size <= 7]


@pytest.fixture(scope="module")
def catalog():
    """Every grading's context, in label order and catalog order."""
    return [
        analyze(spec)
        for label in LABELS
        for spec in catalog_involutions(load_diagram(label), include_adjoint=True, dedupe=False)
    ]


def test_catalog_size(catalog):
    assert len(catalog) == 482


def test_complex_rule_matches_descent(catalog):
    # is_complex is a norm rule; the reference asks the descent whether
    # delta + a is a real root.  root_type must follow from the reference.
    count = 0
    for ctx in catalog:
        d = ctx.d
        checked = {
            *ctx.odd_height_one_roots,
            *d.simple_roots,
            *(w.root for w in ctx.walls),
            *ctx.even_positive_roots,
        }
        for a in checked:
            where = (ctx.spec.describe(), a)
            complex_ = ctx.k == 2 and is_real_root(d, add(ctx.delta, a))
            assert ctx.is_complex(a) == complex_, where
            long_ = fraction_form(d, a, a) == 2
            assert ctx.root_type(a) == (1 if long_ and not complex_ else 2), where
        count += len(checked)
    assert count == 30287


def test_raising_closure_matches_root_scan(catalog):
    # every positive root of odd height at most 2, real or imaginary, with
    # its odd height: the closure against the norm-bounded scan that
    # root_kind classifies; S1 and the even roots are its filters
    roots = 0
    for ctx in catalog:
        name = ctx.spec.describe()
        want = graded_root_scan(ctx)
        assert ctx.graded_roots == want, name
        assert raising_closure(ctx.d, ctx.spec.flags, 1) == {
            a: g for a, g in want.items() if g <= 1}, name
        assert ctx.odd_height_one_roots == {
            a for a, g in want.items() if g == 1 and is_real_root(ctx.d, a)}, name
        assert ctx.even_positive_roots == {a for a, g in want.items() if g == 0}, name
        roots += len(want)
    assert roots == 51478


def test_subsystem_closure_matches_reflection_closure():
    # every connected proper node subset: raised by the string rule against
    # reflected from the simple roots
    subsets = 0
    for label in LABELS:
        d = load_diagram(label)
        for size in range(1, d.size):
            for comp in combinations(d.nodes, size):
                if len(components(d, comp)) == 1:
                    assert subsystem_closure(d, comp) == reflection_closure(d, comp), (label, comp)
                    subsets += 1
    assert subsets == 1363


def test_dominant_ascent_matches_reflecting_walk():
    # every connected proper node subset and every simple root: the letters
    # and the endpoint of the ascent that carries its row of pairings, against
    # the walk that sums every pairing again at each step
    walks = steps = 0
    for label in LABELS:
        d = load_diagram(label)
        for size in range(1, d.size):
            for comp in combinations(d.nodes, size):
                if len(components(d, comp)) != 1:
                    continue
                for a in d.simple_roots:
                    got = dominant_ascent(d, comp, a)
                    assert got == reflecting_ascent(d, comp, a), (label, comp, a)
                    walks += 1
                    steps += len(got[1])
    assert (walks, steps) == (10150, 30165)


def test_longest_quotient_matches_column_ascent():
    # every proper J, with every J' inside it where J has at most 64 subsets
    # and otherwise a fixed sample of 64 (the empty set and J among them):
    # the weight walk's letters against those the ascent on packed columns
    # appends after w0(J'), and |Phi_J^+| - |Phi_J'^+| of them
    pairs = steps = 0
    for label in QUOTIENT_LABELS:
        d = load_diagram(label)
        for size in range(d.size):
            for nodes in combinations(d.nodes, size):
                subsets = [inner for k in range(size + 1) for inner in combinations(nodes, k)]
                if len(subsets) > 64:
                    rng = random.Random(f"{label} {nodes}")
                    subsets = [(), nodes] + rng.sample(subsets[1:-1], 62)
                for inner in subsets:
                    got = longest_quotient(d, inner, nodes)
                    assert got == column_quotient(d, inner, nodes), (label, inner, nodes)
                    count = positive_root_count(d, nodes) - positive_root_count(d, inner)
                    assert len(got) == count, (label, inner, nodes)
                    pairs += 1
                    steps += count
    assert (pairs, steps) == (25787, 217314)


def test_component_theta_is_highest_root_of_closure(catalog):
    # theta by dominant ascent against the highest root of the closure
    multi_node = 0
    for ctx in catalog:
        for comp in ctx.components:
            closure = subsystem_closure(ctx.d, comp.nodes)
            assert comp.theta == max(closure, key=ht), (ctx.spec.describe(), comp.nodes)
            multi_node += len(comp.nodes) > 1
    assert multi_node == 580


def test_wall_families_match_reference(catalog):
    # each wall's heads and blocked nodes against the case-by-case rules, and
    # the family index against the walls' heads, in order
    walls = families = 0
    for ctx in catalog:
        name = ctx.spec.describe()
        for wall in ctx.walls:
            assert wall.heads == family_indices(ctx, wall), (name, wall.index)
            assert wall.blocked == blocked_nodes(ctx, wall), (name, wall.index)
        want = [(a, w.index) for w in ctx.walls for a in family_indices(ctx, w)]
        assert [(a, w.index) for a, w in ctx.families] == want, name
        assert all(w is ctx.walls[w.index - 1] for _, w in ctx.families), name
        walls += len(ctx.walls)
        families += len(want)
    assert (walls, families) == (1244, 3516)


def test_maxima_index_matches_reference(catalog):
    # each wall's family tops and the crossed pairs, order included, against
    # the wall-pair loops; every type-1 wall pair has a crossed pair, and in
    # each, x heads a family at wb and y one at wa, so the intersection and
    # length checks that walk the pairs miss no case.  A type-2 wall's theta
    # is short or complex, and so is every node of its component: no pair
    # could cross there
    pairs = wall_pairs = 0
    for ctx in catalog:
        name = ctx.spec.describe()
        for wall in ctx.walls:
            assert wall.tops == family_tops(ctx, wall), (name, wall.index)
            if wall.kind == "component" and wall.wall_type == 2:
                assert not ctx.type_one_nodes(wall.component.nodes), (name, wall.index)
        want = crossed_pairs(ctx)
        assert len(ctx.pairs) == len(want), name
        for got, ref in zip(ctx.pairs, want):
            assert got[:2] == ref[:2] and got[2] is ref[2] and got[3] is ref[3], (name, got)
        for x, y, wa, wb in ctx.pairs:
            assert x in wb.heads and y in wa.heads, (name, x, y)
        type_one = sum(w.kind == "component" and w.wall_type == 1 for w in ctx.walls)
        walls = {(wa.index, wb.index) for _, _, wa, wb in ctx.pairs}
        assert len(walls) == type_one * (type_one - 1) // 2, name
        pairs += len(ctx.pairs)
        wall_pairs += len(walls)
    assert (pairs, wall_pairs) == (1440, 235)


def test_symmetrizer_matches_fraction_walk():
    # read off marks and comarks in integers against the walk over the
    # diagram's edges: L is the least common denominator, the Gram
    # diagonal 2 * L * d_i
    for label in LABELS:
        d = load_diagram(label)
        want = fraction_symmetrizer(d.cartan)
        assert d.symmetrizer == want, label
        assert d.form_scale == lcm(*(x.denominator for x in want)), label
        assert [d.gram[i][i] for i in d.nodes] == [2 * d.form_scale * x for x in want], label


def test_kernel_vector_matches_fraction_elimination():
    # marks and comarks, found by one pass over the diagram's tree (or its
    # cycle) and certified along the edges, against elimination in Fraction
    for label in LABELS:
        d = load_diagram(label)
        assert d.marks == fraction_kernel_vector(d.cartan), label
        assert d.comarks == fraction_kernel_vector(tuple(zip(*d.cartan))), label


def test_parabolic_sizes_match_type_table():
    # every connected proper node subset of every diagram, all of finite
    # type: the highest-root formulas for the sizes and the dual Coxeter
    # number against the tables of the type the all-pairs scan names; the
    # whole diagram is outside the precondition
    proper = whole = 0
    for label in LABELS:
        d = load_diagram(label)
        for size in range(1, d.size):
            for comp in combinations(d.nodes, size):
                if len(components(d, comp)) == 1:
                    name = pairwise_classify_component(d, comp)
                    assert finite_type_sizes(d, comp) == [type_sizes(name)], (label, comp)
                    h = type_dual_coxeter(name)
                    assert theta_dual_coxeter(d, highest_root(d, comp)) == h, (label, comp)
                    proper += 1
        with pytest.raises(ValueError, match="not a proper subset"):
            finite_type_sizes(d, d.nodes)
        whole += 1
    assert proper == 1363
    assert whole == 51


def test_packed_bfs_matches_tuple_reference(catalog):
    # the same words, decoded columns, masks, covers and families, in order
    for ctx in catalog:
        name = ctx.spec.describe()
        got, want = enumerate_poset(ctx), scan_poset(ctx)
        assert list(map(got.word, range(len(got)))) == want.words, name
        mats = [tuple(unpack(c, ctx.d.size) for c in cols) for cols in got.cols]
        assert mats == want.mats, name
        assert (list(got.masks), list(got.edges)) == (want.masks, want.edges), name
        assert (got.by_mask, got.complete) == (want.by_mask, want.complete), name
        assert got._family_table == tuple_family_table(ctx, want.mats), name


def test_cover_count_is_the_descent_count(catalog):
    # P is a lower set in the right weak order, and so is each truncation by
    # length: the covers into q are its descents, its negative columns, so
    # their number is the number of covers the poset steps along
    posets = 0
    for ctx in catalog:
        top = max(m.bit_count() for m in enumerate_poset(ctx).masks)
        for max_length in (None, *range(top)):
            p = enumerate_poset(ctx, max_length)
            assert p.cover_count == len(p.edges), (ctx.spec.describe(), max_length)
            posets += 1
    assert posets == 6582


def test_packed_columns_round_trip(catalog):
    # every column of every poset element decodes to a real root of one
    # sign, with the int's sign, inside the field bound, and packs back
    top = 0
    for ctx in catalog:
        d = ctx.d
        for col in {c for cols in enumerate_poset(ctx).cols for c in cols}:
            a = unpack(col, d.size)
            assert pack(a) == col and is_real_root(d, a), (ctx.spec.describe(), a)
            assert all(x >= 0 for x in a) if col > 0 else all(x <= 0 for x in a), a
            top = max(top, *map(abs, a))
    assert top == 6 < BOUND


def test_structural_masks_match_pairwise_reference(catalog):
    # rows raised along S1 and packed differences looked up, against a dot
    # product and a difference for every pair of S1
    pairs = 0
    for ctx in catalog:
        assert structural_masks(ctx) == pairwise_structural_masks(ctx), ctx.spec.describe()
        pairs += len(ctx.s1_order) * (len(ctx.s1_order) - 1) // 2
    assert pairs == 532541


def test_abelian_subspaces_are_the_inversion_sets(catalog):
    # the paper's bijection, both ways: the sum-free subsets of S1 closed
    # under subtracting even simple roots, found by search from root_kind
    # alone, are exactly the inversion sets of the enumerated poset.  The
    # structural check proves only that each inversion set is one of them;
    # criterion 8 brute-forces the converse on seven tiny adjoint cases
    grams: dict = {}
    spent = 0.0
    sets = 0
    root_kind.cache_clear()  # timed cold, whichever tests ran before
    for ctx in catalog:
        masks = set(enumerate_poset(ctx).masks)
        start = time.perf_counter()
        if ctx.d not in grams:
            grams[ctx.d] = integer_gram(ctx.d)
        found = abelian_subspace_masks(ctx, grams[ctx.d])
        spent += time.perf_counter() - start
        assert found == masks, (ctx.spec.describe(), len(found - masks), len(masks - found))
        sets += len(found)
    assert sets == 62883
    assert spent < 8, f"bijection oracle took {spent:.1f} s"


def test_families_read_in_stored_order(catalog):
    # positions ascend by length, so each family's first member is its
    # shortest, which the report reads without a search;
    # the completeness check reads the index's keys, sorted, where the
    # reference probes every wall and node, here also with two keys outside
    # the heads, inserted last wall first
    mutated = 0
    for ctx in catalog:
        name = ctx.spec.describe()
        p = enumerate_poset(ctx)
        lengths = list(map(p.length, range(len(p))))
        assert lengths == sorted(lengths), name
        for a, wall in ctx.families:
            fam = p.family(a, wall)
            first = p.length(fam[0])
            assert all(p.length(q) > first for q in fam[1:]), (name, a, wall.index)
            assert fam[0] == p.position(ctx.family_minima[a, wall.index]), (name, a, wall.index)
        for entry in result_document(p)["families"]:
            fam = p.family(entry["alpha"], ctx.walls[entry["wall"] - 1])
            assert entry["min_word"] == list(p.word(min(fam, key=p.length))), name
        assert check_family_completeness(p) == probed_family_completeness(p), name
        outside = [(a, w.index) for w in ctx.walls for a in ctx.d.nodes if a not in w.heads]
        if len(outside) >= 2:
            bad = copy.copy(p)
            bad._family_table = {**p._family_table, outside[-1]: (0,), outside[0]: (0,)}
            got = check_family_completeness(bad)
            assert not got.passed and got == probed_family_completeness(bad), name
            mutated += 1
    assert mutated == 397


def test_closed_form_words_are_reduced(catalog):
    # the library keeps each closed form as a word and walks it only where it
    # is used; each must walk to an element (`word_element` raises at a
    # letter that shortens it) of its closed-form length: every family
    # minimum, every type-2 special involution, the theta mapper of every
    # type-1 node of a type-1 component (which must reach theta), and the u
    # of every wall pair that crossed pairs join
    counts = Counter()
    for ctx in catalog:
        d, name = ctx.d, ctx.spec.describe()
        g0 = dual_coxeter_number(d)
        for a, wall in ctx.families:
            m = word_element(d, ctx.family_minima[a, wall.index])
            assert m.length == ctx.minimum_length(wall), (name, a, wall.index)
            counts["minima"] += 1
        for wall in ctx.walls:
            if wall.kind != "component":
                continue
            comp = wall.component
            if wall.wall_type == 2:
                s = word_element(d, ctx.special_involution(comp))
                assert s.length == g0 - comp.sub_dual_coxeter + 1, (name, comp.index)
                counts["involutions"] += 1
                continue
            for x in ctx.type_one_nodes(comp.nodes):
                v = word_element(d, ctx.theta_mapper(comp, x))
                assert v.apply(simple_root(d, x)) == comp.theta, (name, comp.index, x)
                counts["mappers"] += 1
        for wa, wb in dict.fromkeys(pair[2:] for pair in ctx.pairs):
            inner, common = ctx.common_nodes(wa.component.region, wb.component.region)
            u = word_element(d, longest_quotient(d, inner, common))
            expect = positive_root_count(d, common) - positive_root_count(d, inner)
            assert u.length == expect, (name, wa.index, wb.index)
            counts["u"] += 1
    assert counts == {"minima": 3516, "involutions": 150, "mappers": 1827, "u": 235}


def test_maxima_are_set_scan_tops(catalog):
    # each closed-form maximum, placed by its word, is the one member of its
    # family (for a crossed pair, of F(x, wb) & F(y, wa)) whose inversion set
    # is in no other member's
    items = 0
    for ctx in catalog:
        p = enumerate_poset(ctx)
        for it in maxima_parametrization(p):
            first, *rest = (p.family(a, ctx.walls[w - 1])
                            for a, w in zip(it.alphas, it.wall_indices))
            members = sorted(set(first).intersection(*rest))
            assert maximal_by_sets(p, members) == (it.position,), (ctx.spec.describe(), it.label)
            items += 1
    assert items == 2928


def test_verify_all_whole_catalog(catalog):
    failures = []
    for ctx in catalog:
        poset = enumerate_poset(ctx)
        for result in verify_all(poset):
            if not result.passed:
                failures.append((ctx.spec.describe(), result.name, result.detail))
    assert not failures, failures[:5]


def test_one_step_structural_matches_per_mask_scan(catalog):
    # each element's one new root against its parent's mask, where the
    # reference scans every member of every element's mask
    for ctx in catalog:
        poset = enumerate_poset(ctx)
        got = check_structural(poset)
        assert got == per_mask_structural(poset), ctx.spec.describe()
        assert got.detail == "all inversion sets biconvex and sum-free", ctx.spec.describe()


def test_bounding_walk_matches_column_building_oracle(catalog):
    # the walk that steps to the poset's stored columns against the one that
    # builds every element's columns again, on every grading of the catalog,
    # the acceptance labels among them, adjoint included, not folded
    for ctx in catalog:
        poset = enumerate_poset(ctx)
        got = check_bounding_equivalence(poset)
        assert got == column_bounding_equivalence(poset), ctx.spec.describe()
        assert got.passed, ctx.spec.describe()


def test_coset_translates_match_reflection_walk(catalog):
    # minimality by one lookup among the subgroup simples, each
    # representative keyed by its translate's position, against reflecting
    # every subgroup simple at each ascent, each keyed by its inversion mask:
    # the same translates in the same order; order kept by translation, read
    # off length additivity in the library, against every pair compared
    families = simples = 0
    for ctx in catalog:
        poset = enumerate_poset(ctx)
        for a, wall in ctx.families:
            fam = poset.family(a, wall)
            if not fam:
                continue
            where = (ctx.spec.describe(), a, wall.index)
            families += 1
            ambient, subgroup = ctx.quotient_data(a, wall)
            # the lookup is exact only if no subgroup simple is twice a root
            assert all(gcd(*beta) == 1 for beta in subgroup), where
            simples += len(subgroup)
            start = poset.position(ctx.family_minima[a, wall.index])
            got = coset_translates(poset, start, ambient, subgroup)
            _, reps = reflecting_coset_translates(poset, start, ambient, subgroup)
            assert got == [img for _, img in reps], where
            assert len(got) == len(fam), where
            assert set(got) == set(fam), where
            assert translation_keeps_order(poset.masks, reps), where
    assert (families, simples) == (3516, 15615)


def test_automorphisms_match_permutation_search():
    # placing nodes along edges finds every permutation that fixes the
    # Cartan matrix, and no other
    for label in SMALL:
        d = load_diagram(label)
        assert diagram_automorphisms(d) == permutation_automorphisms(d), label
    assert len(SMALL) == 37


def test_components_match_neighbour_expansion():
    # every node subset of the labels with at most 9 nodes, and random
    # subsets of every density at large rank, in the same order
    subsets = 0
    for label in LABELS:
        d = load_diagram(label)
        if d.size <= 9:
            for mask in range(1 << d.size):
                nodes = [i for i in d.nodes if mask >> i & 1]
                assert components(d, nodes) == expanded_components(d, nodes), (label, nodes)
                subsets += 1
    assert subsets == 6392
    rng = random.Random(34)
    for label in ("A200~1", "D400~1"):
        d = load_diagram(label)
        for density in (0.3, 0.6, 0.9) * 7:
            nodes = [i for i in d.nodes if rng.random() < density]
            rng.shuffle(nodes)
            assert components(d, nodes) == expanded_components(d, nodes), label


def _orbits(autos, ctxs):
    """Classes of gradings under the automorphisms `autos`, by union-find on
    the images of each grading's odd set, each class in catalog order and the
    classes in the order of their first members."""
    key = {(ctx.odd, ctx.spec.adjoint): n for n, ctx in enumerate(ctxs)}
    parent = list(range(len(ctxs)))

    def find(n):
        while parent[n] != n:
            n = parent[n]
        return n

    for n, ctx in enumerate(ctxs):
        for perm in autos:
            image = key[(tuple(sorted(perm[i] for i in ctx.odd)), ctx.spec.adjoint)]
            parent[find(image)] = find(n)
    classes: dict[int, list] = {}
    for n, ctx in enumerate(ctxs):
        classes.setdefault(find(n), []).append(ctx)
    return list(classes.values())


def test_automorphic_gradings_give_isomorphic_posets(catalog):
    # |P|, the length histogram and |maxima| agree across each orbit, and the
    # catalog's dedupe keeps the first grading of each orbit, the orbits of
    # the small diagrams found from every node permutation
    by_label: dict[str, list] = {}
    for ctx in catalog:
        by_label.setdefault(ctx.d.label, []).append(ctx)
    total = 0
    for label, ctxs in by_label.items():
        d = ctxs[0].d
        autos = permutation_automorphisms(d) if label in SMALL else diagram_automorphisms(d)
        orbits = _orbits(autos, ctxs)
        for orbit in orbits:
            shapes = set()
            for ctx in orbit:
                poset = enumerate_poset(ctx)
                lengths = Counter(m.bit_count() for m in poset.masks)
                shapes.add((len(poset), tuple(sorted(lengths.items())), len(poset.maxima)))
            assert len(shapes) == 1, (label, [ctx.odd for ctx in orbit], shapes)
        deduped = catalog_involutions(d, include_adjoint=True)
        assert deduped == tuple(orbit[0].spec for orbit in orbits), label
        total += len(orbits)
    assert total == 188
    # A_n~1: the pairs up to rotation and reflection are the distances
    # 1..floor((n+1)/2) around the cycle, and the adjoint nodes one orbit
    for n in (30, 100):
        got = catalog_involutions(load_diagram(f"A{n}~1"), include_adjoint=True)
        assert len(got) == (n + 1) // 2 + 1, n
