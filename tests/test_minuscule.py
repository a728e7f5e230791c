import copy
import functools
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

import borelab
from borelab.cartan import dual_coxeter_number, load_diagram
import borelab.grading as grading
from borelab.grading import GradedContext, analyze, catalog_involutions, context_for, involution
import borelab.minuscule as minuscule
from borelab.minuscule import (
    check_bounding_equivalence,
    check_coset_isomorphism,
    check_intersections,
    check_maxima,
    check_poset_basics,
    check_special_involutions,
    check_structural,
    coset_translates,
    structural_masks,
    verify_all,
)
import borelab.poset as poset_module
from borelab.poset import enumerate_poset, maxima_parametrization
from borelab.report import result_document
from borelab.roots import (
    add,
    bilinear,
    coroot_pair,
    is_long,
    longest_quotient,
    norm_sq,
    pair,
    simple_root,
)
import borelab.weyl as weyl
from borelab.weyl import dominant_mapper, pack, unpack
import oracles
from oracles import (
    column_bounding_equivalence,
    coset_poset,
    decompositions,
    fraction_form,
    from_reflection,
    from_word,
    identity_element,
    is_biconvex,
    longest_element,
    mask_verdict,
    maximal_by_sets,
    minimal_mapper,
    per_mask_structural,
    product,
    reflecting_coset_translates,
    root_kind,
    scan_poset,
    structural_verdict,
    summands,
    translation_keeps_order,
    word_element,
)


def words(poset):
    return {poset.word(q) for q in range(len(poset))}


def element(poset, q):
    """The oracle element of q's stored word, for its inversion set."""
    return word_element(poset.ctx.d, poset.word(q))


def test_adjoint_rank_one_and_two_exactly():
    p = enumerate_poset(context_for("A1~1", [0], adjoint=True))
    assert words(p) == {(), (0,)}
    p = enumerate_poset(context_for("A2~1", [0], adjoint=True))
    assert words(p) == {(), (0,), (0, 1), (0, 2)}
    assert sorted(map(p.word, p.maxima)) == [(0, 1), (0, 2)]


def test_smallest_hermitian_case():
    p = enumerate_poset(context_for("A1~1", [0, 1]))
    assert words(p) == {(), (0,), (1,)}
    assert len(p.maxima) == 2


def test_d5_twisted_golden(d5):
    ctx, p = d5
    assert len(p) == 15
    assert len(p.edges) == 19
    assert sorted(map(p.length, p.maxima)) == [3, 7, 7]
    w1, w2, w3 = ctx.walls
    assert len(p.family(0, w1)) == 1
    assert len(p.family(1, w2)) == 4
    assert len(p.family(2, w2)) == 1
    assert len(p.family(1, w3)) == 1
    assert p.family(0, w2) == ()
    assert p.family(3, w3) == ()


def test_d5_family_minimum_lengths(d5):
    ctx, p = d5
    w1, w2, w3 = ctx.walls
    assert len(ctx.family_minima[0, w1.index]) == 7  # g - 1 for a type-2 wall
    assert len(ctx.family_minima[1, w2.index]) == 3  # g - g_Sigma
    assert len(ctx.family_minima[2, w2.index]) == 3
    assert len(ctx.family_minima[1, w3.index]) == 7  # g - 1 for the odd wall


def test_e8_golden(e8):
    ctx, p = e8
    assert len(p) == 239
    assert len(p.maxima) == 14
    items = maxima_parametrization(p)
    by_label = {it.label: it.dimension for it in items}
    assert by_label == {
        "alpha2@wall2": 20, "alpha3@wall2": 16, "alpha4@wall2": 14,
        "alpha5@wall2": 13, "alpha6@wall2": 12, "alpha8@wall2": 14,
        "alpha0&alpha2": 28, "alpha0&alpha3": 28, "alpha0&alpha4": 28,
        "alpha0&alpha5": 28, "alpha0&alpha6": 28, "alpha0&alpha7": 28,
        "alpha0&alpha8": 28, "alpha1@wall3": 29,
    }
    for it in items:
        assert p.length(it.position) == it.dimension


def test_e8_family_sizes(e8):
    ctx, p = e8
    w1, w2, w3 = ctx.walls
    assert len(p.family(0, w2)) == 63  # |W(E7)| / |W(D6 + theta-star)|
    assert len(p.family(6, w2)) == 1
    assert len(p.family(1, w3)) == 1
    for a in w1.heads:
        assert len(ctx.family_minima[a, w1.index]) == 30 - 2
    assert len(ctx.family_minima[0, w2.index]) == 30 - 18


def special_element(ctx, comp):
    """The element the special involution's word spells, for its columns."""
    return word_element(ctx.d, ctx.special_involution(comp))


def test_special_involution_closed_forms():
    # hermitian C-type: product of the two end reflections
    ctx = context_for("C3~1", [0, 3])
    (comp,) = ctx.components
    s = special_element(ctx, comp)
    assert s.cols == from_word(ctx.d, [0, 3]).cols
    # B-type with the short-end singleton component: the folded word
    ctx = context_for("B3~1", [2])
    comp = next(c for c in ctx.components if c.nodes == (3,))
    s = special_element(ctx, comp)
    assert s.cols == from_word(ctx.d, [2, 0, 1, 2]).cols
    assert s.length == 4
    ctx = context_for("B4~1", [3])
    comp = next(c for c in ctx.components if c.nodes == (4,))
    s = special_element(ctx, comp)
    assert s.cols == from_word(ctx.d, [3, 2, 0, 1, 2, 3]).cols
    assert s.length == 6
    # k=2: the reflection in delta minus the component highest root
    ctx = context_for("A2~1", [0], adjoint=True)
    (comp,) = ctx.components
    assert special_element(ctx, comp).cols == from_reflection(ctx.d, (1, 0, 0)).cols
    ctx = context_for("D5~2", [1])
    comp = ctx.components[0]
    assert special_element(ctx, comp).cols == from_reflection(
        ctx.d, (0, 1, 1, 1, 1)).cols
    assert len(ctx.special_involution(comp)) == 8 - 2 + 1


def test_maxima_parametrization_built_once(d5):
    # one build per poset; the truncation refusal raises again on every read
    ctx, full = d5
    p = enumerate_poset(ctx)
    items = maxima_parametrization(p)
    assert maxima_parametrization(p) is items and p.parametrization is items
    assert items == maxima_parametrization(full) and check_maxima(p).passed
    short = enumerate_poset(ctx, max_length=2)
    for _ in range(2):
        with pytest.raises(ValueError, match="truncated at length 2"):
            maxima_parametrization(short)


def mutant_results(monkeypatch, ctx, items):
    """verify_all on a fresh poset whose closed-form maxima are `items`."""
    monkeypatch.setattr(ctx, "closed_form_maxima", items)
    results = verify_all(enumerate_poset(ctx))
    monkeypatch.undo()
    return results


def factor_start(ctx, item):
    """Where the w0(J')*w0(J) factor begins in a closed-form maximum's word:
    after the family minimum, or after u*v_x*v_y for a crossed pair."""
    if item.kind == "pair":
        lows = {(x, y): low for (x, y, _, _), low in zip(ctx.pairs, ctx.pair_minimum_words)}
        return len(lows[item.alphas])
    return len(ctx.family_minima[item.alphas[0], item.wall_indices[0]])


@pytest.mark.parametrize("label,odd,target", [
    ("C4~1", [0, 4], "alpha1@wall1"),
    ("A6~1", [0, 3], "alpha1&alpha6"),
    ("A6~1", [0, 3], "alpha3@wall3"),
])
def test_maxima_check_fails_on_dropped_letter(monkeypatch, label, odd, target):
    # each letter of one top's w0(J')*w0(J) factor dropped in turn: the word
    # leaves P, or spells an element below the top, in its family or not;
    # check_maxima fails naming the item, the odd-wall top also fails
    # hermitian_half, and verify_all still returns every check
    ctx = context_for(label, odd)
    names = [r.name for r in verify_all(enumerate_poset(ctx))]
    real = ctx.closed_form_maxima
    (item,) = [c for c in real if c.label == target]
    start = factor_start(ctx, item)
    assert start < len(item.word)
    outcomes = set()
    for n in range(start, len(item.word)):
        word = item.word[:n] + item.word[n + 1:]
        items = tuple(c._replace(word=word) if c is item else c for c in real)
        results = {r.name: r for r in mutant_results(monkeypatch, ctx, items)}
        assert list(results) == names
        r = results["maxima_parametrization"]
        assert not r.passed and r.detail.startswith(f"{target}: "), (n, r.detail)
        outcomes.add(r.detail[len(target) + 2:])
        if item.kind == "odd":
            r = results["hermitian_half"]
            assert not r.passed and r.detail.startswith(f"{target}: "), (n, r.detail)
    assert "closed-form element is not its family's top" in outcomes


@pytest.mark.parametrize("label,odd", [("C4~1", [0, 4]), ("A6~1", [0, 3]), ("E6~1", [6])])
def test_maxima_check_fails_on_swapped_words(monkeypatch, label, odd):
    # two items' words swapped: the first places the other's top, which is
    # not the top of its own family, as distinct families have distinct tops
    ctx = context_for(label, odd)
    real = ctx.closed_form_maxima
    names = [r.name for r in verify_all(enumerate_poset(ctx))]
    for i, j in combinations(range(len(real)), 2):
        items = list(real)
        items[i] = real[i]._replace(word=real[j].word)
        items[j] = real[j]._replace(word=real[i].word)
        results = mutant_results(monkeypatch, ctx, tuple(items))
        assert [r.name for r in results] == names
        (r,) = [r for r in results if r.name == "maxima_parametrization"]
        assert not r.passed and r.detail.startswith(f"{real[i].label}: "), (i, j, r.detail)


def test_truncated_poset_has_no_maxima(d5):
    # the frontier of a truncated enumeration is not its maxima: here two
    # elements of length 2, where the full poset has 3 maxima, of lengths
    # 3, 7 and 7; the refusal raises again on every read
    ctx, full = d5
    short = enumerate_poset(ctx, max_length=2)
    for _ in range(2):
        with pytest.raises(ValueError, match="truncated at length 2"):
            short.maxima
    assert sorted(map(full.length, full.maxima)) == [3, 7, 7]


def test_max_length_truncation(d5):
    ctx, full = d5
    p = enumerate_poset(ctx, max_length=2)
    assert not p.complete
    assert all(p.length(q) <= 2 for q in range(len(p)))
    assert len(p) == len([q for q in range(len(full)) if full.length(q) <= 2])
    assert enumerate_poset(ctx, max_length=len(ctx.odd_height_one_roots)).complete
    with pytest.raises(ValueError, match="max_length"):
        enumerate_poset(ctx, max_length=-1)


def test_e6_intersections():
    ctx = context_for("E6~1", [6])
    p = enumerate_poset(ctx)
    w1, w2, w3 = ctx.walls
    nonempty = []
    for a in w1.heads:
        for b in w2.heads:
            inter = set(p.family(a, w1)) & set(p.family(b, w2))
            if inter:
                nonempty.append((a, b))
    # alpha must come from the other wall's component: 5 crossings with
    # alpha in {1..5} and beta = 0
    assert nonempty == [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0)]
    ca, cb = ctx.components[1], ctx.components[0]
    u = longest_quotient(ctx.d, *ctx.common_nodes(ca.region, cb.region))
    m = word_element(ctx.d, u + ctx.theta_mapper(ca, 1) + ctx.theta_mapper(cb, 0))
    fam = set(p.family(1, w1)) & set(p.family(0, w2))
    assert p.position(m.word) in fam
    assert all(m.inversions <= element(p, q).inversions for q in fam)
    assert check_intersections(p).passed


def test_intersections_reject_wrong_family_minimum():
    # every family minimum replaced by the identity (mask 0) or by the
    # longest element of the finite E6 (outside the poset, no position): the
    # intersection minima's masks are then not the unions
    for stand_in in (identity_element, lambda d: longest_element(d, range(1, 7))):
        ctx = context_for("E6~1", [6])
        p = enumerate_poset(ctx)
        w = stand_in(ctx.d)
        assert (p.position(w.word) is None) == (w.length > 0)
        for wall in ctx.walls:
            for a in wall.heads:
                ctx.family_minima[(a, wall.index)] = w.word
        r = check_intersections(p)
        assert not r.passed
        assert r.detail == "intersection (1,1)&(0,2): inversions are not the union of the family minima's"


def test_u_element_length():
    # u = w0(J')*w0(J) on the common nodes of two type-1 regions, an involution
    ctx = context_for("E6~1", [6])
    ca, cb = ctx.components[:2]
    u = word_element(ctx.d, longest_quotient(ctx.d, *ctx.common_nodes(ca.region, cb.region)))
    assert u.length == 12 - 2 - 6 + 2
    assert product(u, u).length == 0
    ctx = context_for("E8~1", [1])
    ca, cb = ctx.components[:2]
    u = longest_quotient(ctx.d, *ctx.common_nodes(ca.region, cb.region))
    assert len(u) == 30 - 2 - 18 + 2


def test_e6_maxima_breakdown():
    ctx = context_for("E6~1", [6])
    p = enumerate_poset(ctx)
    items = maxima_parametrization(p)
    kinds = sorted(it.kind for it in items)
    assert kinds == ["component"] * 3 + ["odd"] + ["pair"] * 5
    singles = {it.alphas[0] for it in items if it.kind == "component"}
    assert singles == {2, 3, 4}  # the long region nodes inside the big component
    assert {it.dimension for it in items if it.kind == "pair"} == {10}
    (odd_item,) = [it for it in items if it.kind == "odd"]
    assert odd_item.dimension == 11


def test_hermitian_dimensions():
    ctx = context_for("A6~1", [0, 3])
    p = enumerate_poset(ctx)
    dims = sorted(map(p.length, p.maxima))
    assert dims == [5, 5, 6, 6, 7, 7, 12, 12]
    assert dims[-1] == len(ctx.odd_height_one_roots) // 2


def test_type_one_nodes():
    ctx = context_for("D5~2", [1])
    assert ctx.type_one_nodes(ctx.d.nodes) == (1, 2, 3)
    e8 = context_for("E8~1", [1])
    assert e8.type_one_nodes(e8.d.nodes) == tuple(e8.d.nodes)


def test_verify_all_passes_everywhere(d5, e8):
    for _, p in (d5, e8):
        results = verify_all(p)
        assert all(r.passed for r in results), [r.line() for r in results]
        names = [r.name for r in results]
        assert "bounding_equivalence" in names
        assert "maxima_parametrization" in names


def test_check_line_format(d5):
    _, p = d5
    r = verify_all(p)[0]
    assert r.line().startswith("[PASS] bounding_equivalence:")


def reference_verdict(ctx, inv):
    """Reference: every pair sum checked with root_kind, and is_biconvex."""
    inv = sorted(inv)
    sum_free = all(
        root_kind(ctx.d, add(x, y)) == "none"
        for i, x in enumerate(inv) for y in inv[i + 1:]
    )
    return sum_free, is_biconvex(ctx.d, inv, summands(ctx))


def mask_of(ctx, roots):
    return sum(ctx.s1_bits[pack(a)] for a in roots)


def test_structural_verdict_matches_reference(d5, e8):
    for ctx, poset in (d5, e8):
        partner, down = structural_masks(ctx)
        table = decompositions(ctx)
        for q, mask in enumerate(poset.masks):
            w = element(poset, q)
            verdict = mask_verdict(partner, down, mask)
            assert verdict == (True, True), w.word
            assert verdict == structural_verdict(ctx, w.inversions, table), w.word
            assert verdict == reference_verdict(ctx, w.inversions), w.word
    ctx = e8[0]
    partner, down = structural_masks(ctx)
    table = decompositions(ctx)
    # a raised odd simple root without the even root it was raised by:
    # sum-free, but its decomposition has neither part in the set
    g = add(simple_root(ctx.d, 1), simple_root(ctx.d, 2))
    assert g in ctx.odd_height_one_roots
    assert (mask_verdict(partner, down, mask_of(ctx, [g]))
            == structural_verdict(ctx, [g], table)
            == reference_verdict(ctx, [g]) == (True, False))
    # two members summing to a root outside the set, real or imaginary
    x = simple_root(ctx.d, 1)
    y = next(y for y in ctx.s1_order if root_kind(ctx.d, add(x, y)) == "real")
    assert (mask_verdict(partner, down, mask_of(ctx, [x, y]))
            == structural_verdict(ctx, [x, y], table)
            == reference_verdict(ctx, [x, y]) == (False, False))
    y = tuple(m - a for m, a in zip(ctx.delta, x))
    assert (mask_verdict(partner, down, mask_of(ctx, [x, y]))
            == structural_verdict(ctx, [x, y], table)
            == reference_verdict(ctx, [x, y]) == (False, False))


SWEEP_LABELS = [
    "A1~1", "A2~1", "A3~1", "A4~1", "A5~1", "B2~1", "B3~1", "B4~1",
    "C3~1", "D4~1", "D5~1", "G2~1", "F4~1",
    "A2~2", "A4~2", "A5~2", "D4~2", "D5~2",
]


@pytest.fixture(scope="module")
def sweep():
    """(description, context, poset) for every grading of the acceptance
    labels, adjoint included, not folded by diagram symmetry."""
    out = []
    for label in SWEEP_LABELS:
        for spec in catalog_involutions(load_diagram(label), include_adjoint=True,
                                        dedupe=False):
            ctx = analyze(spec)
            out.append((spec.describe(), ctx, enumerate_poset(ctx)))
    return out


def test_decoded_inversions_match_word_replay(sweep):
    # the mask decode against the set read off each element's reduced word
    for name, _, p in sweep:
        for q in range(len(p)):
            w = element(p, q)
            decoded = {a for n, a in enumerate(p.ctx.s1_order) if p.masks[q] >> n & 1}
            assert decoded == w.inversions, (name, w.word)


def last_descent_word(d, cols):
    """A reduced word read off the columns by stripping the largest right
    descent, w -> w*s_j for the largest j with w(alpha_j) < 0."""
    word = []
    while any(c < 0 for c in cols):
        j = max(j for j, c in enumerate(cols) if c < 0)
        word.append(j)
        cols = weyl._right_mult_simple(d, cols, j)
    return word[::-1]


def test_position_round_trips(sweep):
    # the walk along the stored word, and along another reduced word of the
    # same element: every prefix of either is in the lower set P
    other = 0
    for name, ctx, p in sweep:
        for i in range(len(p)):
            assert p.position(p.word(i)) == i, (name, p.word(i))
            word = last_descent_word(ctx.d, p.cols[i])
            assert p.position(word) == i, (name, word)
            other += tuple(word) != p.word(i)
    assert other == 95  # elements whose two words differ


def test_maxima_match_set_scan(sweep):
    # the elements with no cover are those whose inversion set is in no
    # other element's
    for name, _, p in sweep:
        assert maximal_by_sets(p, range(len(p))) == p.maxima, name


def test_position_outside_s1_is_none(sweep):
    # a maximal element grows only by columns outside S1; the grown element
    # keeps every inversion of the maximal one, which is in the poset
    for name, ctx, p in sweep:
        t = element(p, p.maxima[0])
        grown = [g for g in map(t.extend, ctx.d.nodes) if g is not None]
        assert grown, name
        for g in grown:
            assert not g.inversions <= ctx.odd_height_one_roots
            assert p.position(g.word) is None, (name, g.word)


def test_flipped_mask_bit_fails_poset_basics(sweep):
    for name, ctx, p in sweep:
        assert check_poset_basics(p).passed, name
        width = len(ctx.s1_order)
        for j in range(len(p)):
            bad = copy.copy(p)
            bad.masks = p.masks[:j] + (p.masks[j] ^ 1 << j % width,) + p.masks[j + 1:]
            assert not check_poset_basics(bad).passed, (name, j)


def test_changed_parent_letter_or_column_fails_poset_basics(sweep):
    # each element is its parent times the simple reflection of its last
    # letter: another parent or letter is another element, or a parent that
    # does not come earlier, and a parent's columns are not the element's
    for name, ctx, p in sweep:
        for j in range(1, len(p)):
            q, i = p.parents[j], p.letters[j]
            bad = copy.copy(p)
            bad.parents = p.parents[:j] + ((q + 1) % len(p),) + p.parents[j + 1:]
            assert not check_poset_basics(bad).passed, (name, j)
            bad = copy.copy(p)
            bad.letters = p.letters[:j] + ((i + 1) % ctx.d.size,) + p.letters[j + 1:]
            assert not check_poset_basics(bad).passed, (name, j)
            bad = copy.copy(p)
            bad.cols = p.cols[:j] + (p.cols[q],) + p.cols[j + 1:]
            r = check_poset_basics(bad)
            assert r.detail == f"column mismatch at {p.word(j)}", (name, j)


def test_poset_stores_no_element_objects(monkeypatch):
    # one stored form: masks, parents, letters, columns and the mask index,
    # with no cover list; the identity's columns are the only ones the
    # enumeration builds from nothing, and each other element's are its
    # parent's stepped once
    built, steps = [], []
    monkeypatch.setattr(poset_module, "identity",
                        lambda d, real=weyl.identity: built.append(d) or real(d))
    monkeypatch.setattr(poset_module, "_right_mult_simple",
                        lambda d, cols, i, real=weyl._right_mult_simple:
                        steps.append(i) or real(d, cols, i))
    p = enumerate_poset(context_for("C10~1", [0, 10]))
    assert (len(p), built, steps) == (6144, [p.ctx.d], list(p.letters[1:]))
    for name in ("elements", "_by_cols", "element"):
        assert not hasattr(p, name)
    # nor a cover list or count: both are read off the columns on each read
    assert (p.cover_count, len(p.edges)) == (19456, 19456)
    assert "edges" not in vars(p) and "cover_count" not in vars(p)
    monkeypatch.undo()
    for q in (0, 1, len(p) - 1, *p.maxima):
        w = element(p, q)
        assert (w.word, w.length) == (p.word(q), p.length(q)) and w.cols == p.cols[q]
        assert p.position(w.word) == q


def test_library_keeps_one_element_form():
    # an element is its packed columns: `weyl` defines no class, and the poset
    # spells words but builds no element object
    assert [name for name, v in vars(weyl).items()
            if isinstance(v, type) and v.__module__ == weyl.__name__] == []
    for name in ("WeylElement", "_apply_cols", "_word_element"):
        assert not any(hasattr(module, name) for module in (weyl, poset_module, minuscule))
    assert not hasattr(poset_module.MinusculePoset, "element")


def test_bounding_equivalence_rejects_other_posets(sweep):
    for name, ctx, p in sweep:
        assert check_bounding_equivalence(p).passed, name
        # walls left unblocked: the walk takes a wall root, outside S1
        loose = copy.copy(ctx)
        loose.bounding_roots = lambda: frozenset(simple_root(ctx.d, i) for i in ctx.even)
        bad = copy.copy(p)
        bad.ctx = loose
        r = check_bounding_equivalence(bad)
        assert not r.passed and r == column_bounding_equivalence(bad), name
        # the poset lacks an element the walk reaches
        if len(p) > 1:
            bad = copy.copy(p)
            bad.by_mask = {m: q for m, q in p.by_mask.items() if q != len(p) - 1}
            r = check_bounding_equivalence(bad)
            assert not r.passed and r == column_bounding_equivalence(bad), name
            # the index sends the last two masks to each other's elements:
            # the walk would step to the wrong stored columns
            bad.by_mask = {**p.by_mask, p.masks[-1]: len(p) - 2, p.masks[-2]: len(p) - 1}
            assert not check_bounding_equivalence(bad).passed, name


def test_corrupted_stored_form_fails_verify_all(sweep):
    # the bounding walk steps to the stored masks and columns, which
    # `check_poset_basics` certifies: one bit flipped in the last element's
    # mask, or its columns left at its parent's (the step's update dropped),
    # fail verify_all there, naming the element.  The walk sees every flipped
    # bit too; a dropped update no other check sees in 66 of the 117 gradings
    alone = 0
    for name, ctx, p in sweep:
        j = len(p) - 1
        dropped = copy.copy(p)
        dropped.cols = p.cols[:j] + (p.cols[p.parents[j]],)
        flipped, dropped = [{r.name: r.detail for r in verify_all(bad) if not r.passed}
                            for bad in (with_mask(p, j, p.masks[j] ^ 1), dropped)]
        assert flipped["poset_basics"] == f"inversion set mismatch at {p.word(j)}", name
        assert "bounding_equivalence" in flipped, name
        assert dropped["poset_basics"] == f"column mismatch at {p.word(j)}", name
        alone += list(dropped) == ["poset_basics"]
    assert alone == 66


def test_truncation_below_top_length_is_incomplete(sweep):
    for name, ctx, p in sweep:
        top = max(map(p.length, range(len(p))))
        assert enumerate_poset(ctx, max_length=top).complete, name
        if top:
            short = enumerate_poset(ctx, max_length=top - 1)
            assert not short.complete, name
            assert len(short) == sum(p.length(q) < top for q in range(len(p))), name


def spy_family_minima(monkeypatch, built):
    """Append each context to `built` when its `family_minima` is built."""
    real = GradedContext.__dict__["family_minima"].func
    prop = functools.cached_property(lambda ctx: built.append(ctx) or real(ctx))
    prop.__set_name__(GradedContext, "family_minima")
    monkeypatch.setattr(GradedContext, "family_minima", prop)


def test_family_minimum_built_once_per_grading(monkeypatch):
    built = []
    spy_family_minima(monkeypatch, built)
    ctx = context_for("E8~1", [1])
    verify_all(enumerate_poset(ctx))
    pairs = [(a, wall) for wall in ctx.walls for a in wall.heads]
    assert built == [ctx] and len(pairs) == len(ctx.family_minima) == 17
    assert list(ctx.family_minima) == [(a, wall.index) for a, wall in pairs]
    for a, wall in pairs:
        m = ctx.family_minima[a, wall.index]
        assert ctx.family_minima[a, wall.index] is m
    assert built == [ctx]  # the reads above built nothing


def nonempty_families(ctx, p):
    return [(a, wall) for wall in ctx.walls for a in wall.heads
            if p.family(a, wall)]


def test_coset_translates_match_oracle(sweep):
    # the lockstep walk against normalization by reflections and full products
    for name, ctx, p in sweep:
        for a, wall in nonempty_families(ctx, p):
            m = ctx.family_minima[a, wall.index]
            ambient, subgroup = ctx.quotient_data(a, wall)
            got = coset_translates(p, p.position(m), ambient, subgroup)
            want = sorted(p.position(product(from_word(ctx.d, m), u).word)
                          for u in coset_poset(ctx.d, ambient, subgroup))
            assert len(got) == len(want), (name, a, wall.index)
            assert sorted(got) == want, (name, a, wall.index)


def test_coset_isomorphism_rejects_wrong_minimum(sweep, monkeypatch):
    # the true minimum extended by one step, inside the family's ambient
    # parabolic when it can be (the element then stays in the family)
    for name, ctx, p in sweep:
        assert check_coset_isomorphism(p).passed, name
        for a, wall in nonempty_families(ctx, p):
            m = ctx.family_minima[a, wall.index]
            w_m = word_element(ctx.d, m)
            ambient = ctx.quotient_data(a, wall)[0]
            steps = [i for i in ambient if w_m.extend(i)] or [
                i for i in ctx.d.nodes if w_m.extend(i)]
            monkeypatch.setitem(ctx.family_minima, (a, wall.index), m + (steps[0],))
            r = check_coset_isomorphism(p)
            assert not r.passed, (name, a, wall.index)
            assert r.detail == (
                f"({a}, wall {wall.index}): translate of coset rep leaves family")
            monkeypatch.undo()


def test_coset_isomorphism_rejects_wrong_subgroup(sweep):
    # one simple dropped from the family's subgroup: too many cosets, and the
    # walk meets a translate outside the poset before it can count them
    mutants = 0
    for name, ctx, p in sweep:
        for a, wall in nonempty_families(ctx, p):
            ambient, subgroup = ctx.quotient_data(a, wall)
            if not subgroup:
                continue

            def quotient_data(x, w, a=a, wall=wall, ambient=ambient, subgroup=subgroup):
                if (x, w.index) == (a, wall.index):
                    return ambient, subgroup[1:]
                return ctx.quotient_data(x, w)

            loose = copy.copy(ctx)
            loose.quotient_data = quotient_data
            bad = copy.copy(p)
            bad.ctx = loose
            r = check_coset_isomorphism(bad)
            cosets = len(coset_poset(ctx.d, ambient, subgroup[1:]))
            n = len(p.family(a, wall))
            assert cosets > n, (name, a, wall.index)
            assert not r.passed, (name, a, wall.index)
            assert r.detail == (
                f"({a}, wall {wall.index}): translate of coset rep leaves family")
            mutants += 1
    assert mutants == 471


def test_coset_isomorphism_rejects_missing_member(sweep):
    for name, ctx, p in sweep:
        for a, wall in nonempty_families(ctx, p):
            fam = p.family(a, wall)
            if len(fam) < 2:
                continue
            bad = copy.copy(p)
            bad._family_table = {**p._family_table, (a, wall.index): fam[:-1]}
            r = check_coset_isomorphism(bad)
            assert not r.passed, (name, a, wall.index)
            assert r.detail == (
                f"({a}, wall {wall.index}): {len(fam)} cosets vs {len(fam) - 1} members")


def test_coset_walk_stops_at_a_translate_outside_the_poset(sweep, monkeypatch):
    # no start, or a member other than the minimum dropped from `by_mask`:
    # the walk returns None, and the check names the family it left
    dropped = 0
    for name, ctx, p in sweep:
        for a, wall in nonempty_families(ctx, p):
            where = (name, a, wall.index)
            leaves = f"({a}, wall {wall.index}): translate of coset rep leaves family"
            quotient = ctx.quotient_data(a, wall)
            assert coset_translates(p, None, *quotient) is None, where
            monkeypatch.setitem(ctx.family_minima, (a, wall.index), (0, 0))  # not reduced
            assert p.position(ctx.family_minima[a, wall.index]) is None, where
            assert check_coset_isomorphism(p) == (
                "coset_isomorphism", False, leaves), where
            monkeypatch.undo()
            fam = p.family(a, wall)
            if len(fam) < 2:
                continue
            alone = copy.copy(ctx)
            alone.families = ((a, wall),)
            bad = copy.copy(p)
            bad.ctx = alone
            bad.by_mask = {mask: q for mask, q in p.by_mask.items() if q != fam[-1]}
            start = bad.position(ctx.family_minima[a, wall.index])
            assert start == fam[0], where
            assert coset_translates(bad, start, *quotient) is None, where
            assert check_coset_isomorphism(bad) == ("coset_isomorphism", False, leaves), where
            dropped += 1
    assert dropped == 287


def test_order_oracle_rejects_swapped_translates(sweep):
    # the identity's translate (length 0 over the minimum) swapped with the
    # last one, grown last and so longest: count and membership still hold,
    # and only the every-pair comparison sees that order is not kept
    swapped = 0
    for name, ctx, p in sweep:
        for a, wall in nonempty_families(ctx, p):
            m = ctx.family_minima[a, wall.index]
            start, quotient = p.position(m), ctx.quotient_data(a, wall)
            _, reps = reflecting_coset_translates(p, start, *quotient)
            assert [img for _, img in reps] == coset_translates(p, start, *quotient)
            assert translation_keeps_order(p.masks, reps), (name, a, wall.index)
            if len(reps) < 2:
                continue
            (r0, first), (r1, last) = reps[0], reps[-1]
            assert p.length(first) < p.length(last), (name, a, wall.index)
            bad = [(r0, last), *reps[1:-1], (r1, first)]
            assert sorted(img for _, img in bad) == sorted(p.family(a, wall))
            assert not translation_keeps_order(p.masks, bad), (name, a, wall.index)
            swapped += 1
    assert swapped == 287


TABLE_LABELS = SWEEP_LABELS + ["E6~1", "E6~2", "C4~1", "A7~2", "E7~1"]


def test_structural_masks_match_root_kind_oracle():
    # every grading, adjoint included, not folded: partner against all-pairs
    # root_kind, down against the decomposition oracle
    gradings = 0
    for label in TABLE_LABELS:
        for spec in catalog_involutions(load_diagram(label), include_adjoint=True,
                                        dedupe=False):
            ctx = analyze(spec)
            gradings += 1
            partner, down = structural_masks(ctx)
            order = ctx.s1_order
            for n, x in enumerate(order):
                expect = mask_of(ctx, [
                    y for y in order
                    if y != x and root_kind(ctx.d, add(x, y)) != "none"
                ])
                assert partner[n] == expect, (spec.describe(), x)
            for n, (g, pairs) in enumerate(decompositions(ctx).items()):
                assert g == order[n]
                s1 = ctx.odd_height_one_roots
                parts = [a if a in s1 else b for a, b in pairs]
                assert all((a in s1) != (b in s1) for a, b in pairs)
                assert down[n] == mask_of(ctx, set(parts)), (spec.describe(), g)
    assert gradings == 143


def test_dominant_mapper_matches_orbit_search():
    # every (component nodes, alpha_a, theta) and (region, alpha_a,
    # k*delta - theta) triple for every node a: the ascent and the BFS give
    # the same element, or both give None
    gradings = triples = unreachable = 0
    for label in TABLE_LABELS + ["E8~1"]:
        d = load_diagram(label)
        for spec in catalog_involutions(d, include_adjoint=True, dedupe=False):
            ctx = analyze(spec)
            gradings += 1
            for comp in ctx.components:
                wall_root = tuple(ctx.k * m - t for m, t in zip(ctx.delta, comp.theta))
                for nodes, to in ((comp.nodes, comp.theta), (comp.region, wall_root)):
                    for a in d.nodes:
                        want = minimal_mapper(d, nodes, simple_root(d, a), to)
                        got = dominant_mapper(d, nodes, simple_root(d, a), to)
                        triples += 1
                        if want is None:
                            assert got is None, (spec.describe(), nodes, a)
                            unreachable += 1
                            continue
                        assert got is not None, (spec.describe(), nodes, a)
                        assert word_element(d, got).mat == want.mat, (spec.describe(), nodes, a)
                        assert len(got) == want.length, (spec.describe(), nodes, a)
    assert (gradings, triples, unreachable) == (146, 1992, 1081)


def test_special_involution_matches_orbit_search():
    # every type-2 wall, adjoint gradings included, not folded: the closed
    # form w0(region minus odd) * w0(region) is the shortest element the
    # orbit BFS finds sending theta to k*delta - theta
    gradings = walls = 0
    for label in TABLE_LABELS + ["E8~1"]:
        d = load_diagram(label)
        cap = dual_coxeter_number(d) + 2
        for spec in catalog_involutions(d, include_adjoint=True, dedupe=False):
            ctx = analyze(spec)
            gradings += 1
            for wall in ctx.walls:
                if wall.kind != "component" or wall.wall_type != 2:
                    continue
                comp = wall.component
                to = tuple(ctx.k * m - t for m, t in zip(ctx.delta, comp.theta))
                assert to == wall.root
                want = minimal_mapper(d, d.nodes, comp.theta, to, cap=cap)
                got = ctx.special_involution(comp)
                assert want is not None, (spec.describe(), comp.index)
                assert (word_element(d, got).mat, len(got)) == (want.mat, want.length), (
                    spec.describe(), comp.index)
                walls += 1
    assert (gradings, walls) == (146, 58)


def test_verify_all_runs_no_orbit_search(monkeypatch):
    # the orbit search is a test oracle only: every special involution comes
    # from the closed form.  E8~1{1} has no type-2 wall, D5~2{1} has one
    for module in (weyl, grading, poset_module, minuscule):
        assert not hasattr(module, "minimal_mapper")
        assert not hasattr(module, "_path_word")
    regions = []

    def spy(d, inner, nodes):
        regions.append(tuple(nodes))
        return longest_quotient(d, inner, nodes)

    monkeypatch.setattr(grading, "longest_quotient", spy)
    for label, pi1, type_two in (("E8~1", [1], 0), ("D5~2", [1], 1)):
        ctx = context_for(label, pi1)
        walls = [w for w in ctx.walls if w.kind == "component" and w.wall_type == 2]
        assert len(walls) == type_two, label
        regions.clear()
        results = verify_all(enumerate_poset(ctx))
        assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
        assert {w.component.region for w in walls} <= set(regions), label


def test_closed_forms_walked_once(monkeypatch):
    # each closed form is a word that `position` walks once, in P.  A type-2
    # wall's special involution is also read on its own, once per wall and
    # only by `check_special_involutions`, which walks it on columns from the
    # identity and once more from its own columns, for s*s.  The context
    # builds each closed form once: its family minima once (a type-2 wall's
    # read its special involution once per head), and the u of each wall
    # pair that crossed pairs join once, however many of the maxima, the
    # checks and the result document read them
    callers, quotients, built, steps = [], [], [], []
    special_involution = GradedContext.special_involution

    def spy(ctx, comp):
        callers.append(sys._getframe(1).f_code.co_name)
        return special_involution(ctx, comp)

    def step_spy(d, cols, i, real=weyl._right_mult_simple):
        steps.append(sys._getframe(1).f_code.co_name)
        return real(d, cols, i)

    def quotient_spy(d, inner, nodes, real=longest_quotient):
        quotients.append(sys._getframe(1).f_code.co_name)
        return real(d, inner, nodes)

    monkeypatch.setattr(GradedContext, "special_involution", spy)
    for module in (poset_module, minuscule):
        monkeypatch.setattr(module, "_right_mult_simple", step_spy)
    monkeypatch.setattr(grading, "longest_quotient", quotient_spy)
    spy_family_minima(monkeypatch, built)
    specs = [*catalog_involutions(load_diagram("E6~1"), include_adjoint=True, dedupe=False),
             involution(load_diagram("D5~2"), [1]), involution(load_diagram("E8~1"), [1])]
    contexts = []
    walked = u_walks = 0
    for spec in specs:
        ctx = analyze(spec)
        contexts.append(ctx)
        callers.clear()
        quotients.clear()
        ctx.closed_form_maxima
        p = enumerate_poset(ctx)
        steps.clear()
        results = verify_all(p)
        assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
        result_document(p, results)
        type_two = [w for w in ctx.walls if w.kind == "component" and w.wall_type == 2]
        heads = sum(len(w.heads) for w in type_two)
        assert callers == (["family_minima"] * heads
                           + ["check_special_involutions"] * len(type_two)), spec.describe()
        letters = sum(len(special_involution(ctx, w.component)) for w in type_two)
        assert steps.count("check_special_involutions") == 2 * letters, spec.describe()
        wall_pairs = len(dict.fromkeys(pair[2:] for pair in ctx.pairs))
        assert quotients.count("pair_minimum_words") == wall_pairs, spec.describe()
        assert built == contexts, spec.describe()
        walked += len(type_two)
        u_walks += wall_pairs
    assert (len(specs), walked, u_walks) == (11, 4, 4)


def with_mask(p, q, mask):
    bad = copy.copy(p)
    bad.masks = p.masks[:q] + (mask,) + p.masks[q + 1:]
    return bad


PARENT_PLUS_ONE = "inversion set is not its parent's plus one root"


def test_extra_partner_bit_fails_structural(sweep):
    # a bad mask in one element: the one-step check finds that it is not its
    # parent's plus one root, and the per-mask scan that two members sum to
    # a root
    mutated = 0
    for name, ctx, p in sweep:
        assert check_structural(p).passed, name
        partner, down = structural_masks(ctx)
        for q, mask in enumerate(p.masks):
            extra = [partner[n] & ~mask for n in range(len(partner)) if mask >> n & 1]
            extra = next((e for e in extra if e), 0)
            if extra:
                bad = with_mask(p, q, mask | (extra & -extra))
                r = check_structural(bad)
                assert r == ("structural", False, f"element {q}: {PARENT_PLUS_ONE}"), name
                assert per_mask_structural(bad) == (
                    "structural", False, f"element {q}: inversions sum to a root"), name
                assert mask_verdict(partner, down, bad.masks[q]) == (False, False), name
                mutated += 1
                break
    assert mutated == len(sweep) == 117


def test_missing_down_bit_fails_structural(sweep):
    mutated = 0
    for name, ctx, p in sweep:
        partner, down = structural_masks(ctx)
        for q, mask in enumerate(p.masks):
            held = [down[n] & mask for n in range(len(down)) if mask >> n & 1]
            held = next((h for h in held if h), 0)
            if held:
                bad = with_mask(p, q, mask & ~(held & -held))
                r = check_structural(bad)
                assert r == ("structural", False, f"element {q}: {PARENT_PLUS_ONE}"), name
                assert per_mask_structural(bad) == (
                    "structural", False, f"element {q}: inversion set not biconvex"), name
                assert mask_verdict(partner, down, bad.masks[q]) == (True, False), name
                mutated += 1
                break
    # in the other 10 gradings no element holds a down bit of its own
    assert mutated == 107


def first_new_roots(p):
    """(q, n) for each element q that is the first to add the root at bit
    n, in position order, if q's parent's mask is nonempty."""
    seen = set()
    for q in range(1, len(p)):
        parent = p.masks[p.parents[q]]
        n = (p.masks[q] ^ parent).bit_length() - 1
        if n not in seen:
            seen.add(n)
            if parent:
                yield q, n


@pytest.mark.parametrize("table,detail", [
    (0, "inversions sum to a root"), (1, "inversion set not biconvex"),
])
def test_planted_table_bit_fails_structural(sweep, monkeypatch, table, detail):
    # a bit planted in the tables the check reads: a member of the parent's
    # mask as a partner of x, or a root outside the element as an x - e.  The
    # one-step check reads x's row first at the first element that adds x,
    # and fails there, as the per-mask scan does
    mutated = 0
    for name, ctx, p in sweep:
        q, n = next(first_new_roots(p), (None, None))
        if q is None:
            continue
        tables = structural_masks(ctx)
        outside = ~p.masks[q] & ((1 << len(ctx.s1_order)) - 1)
        bit = p.masks[p.parents[q]] if table == 0 else outside
        if not bit:
            continue
        rows = list(tables[table])
        rows[n] |= bit & -bit
        planted = (rows, tables[1]) if table == 0 else (tables[0], rows)
        with monkeypatch.context() as m:
            for module in (minuscule, oracles):
                m.setattr(module, "structural_masks", lambda _: planted)
            r = check_structural(p)
            assert r == ("structural", False, f"element {q}: {detail}"), name
            assert per_mask_structural(p) == r, name
        mutated += 1
    # in the other 10 gradings every element has length at most 1
    assert mutated == 107


def test_structural_limit_reads_a_prefix(e8):
    _, p = e8
    assert check_structural(p).detail == "all inversion sets biconvex and sum-free"
    assert check_structural(p, len(p)) == check_structural(p)
    for k in (0, 1, 40, len(p) - 1):
        r = check_structural(p, k)
        assert r == ("structural", True, f"{k} of {len(p)} inversion sets biconvex and sum-free")
        assert int(r.detail.split()[0]) == k
        structural = {c.name: c for c in verify_all(p, structural_limit=k)}["structural"]
        assert structural == r
    # the first k positions are a lower set: every parent among them
    assert all(0 <= p.parents[q] < q for q in range(1, 40))


def family_minimum_oracle(ctx, a, wall):
    """The paper's product for a family minimum, multiplied out by the
    oracle; None for a type-1 component wall, whose minimum is one mapper."""
    d = ctx.d
    if wall.kind == "odd":
        b = wall.node
        perp_even = [i for i in ctx.even if d.cartan[i][b] == 0]
        return product(from_word(d, (b,)), longest_element(d, perp_even),
                       longest_element(d, ctx.even))
    if wall.wall_type == 2:
        comp = wall.component
        v = dominant_mapper(d, comp.nodes, simple_root(d, a), comp.theta)
        return product(from_word(d, ctx.special_involution(comp)), from_word(d, v))
    return None


def test_closed_forms_match_oracle_products():
    # the library spells each product as its factors' words end to end; the
    # oracle multiplies matrices and reads a canonical word off the inverse
    gradings = minima = us = pairs = 0
    for label in TABLE_LABELS + ["E8~1"]:
        d = load_diagram(label)
        for spec in catalog_involutions(d, include_adjoint=True, dedupe=False):
            ctx = analyze(spec)
            name = spec.describe()
            gradings += 1
            for wall in ctx.walls:
                for a in wall.heads:
                    want = family_minimum_oracle(ctx, a, wall)
                    if want is not None:
                        got = ctx.family_minima[a, wall.index]
                        assert (word_element(d, got).mat, len(got)) == (want.mat, want.length), (
                            name, a)
                        minima += 1
            comps = [w.component for w in ctx.walls
                     if w.kind == "component" and w.wall_type == 1]
            for i, ca in enumerate(comps):
                for cb in comps[i + 1:]:
                    inter = sorted(set(ca.region) & set(cb.region))
                    inner = [n for n in inter if n not in ctx.odd]
                    u = product(longest_element(d, inner), longest_element(d, inter))
                    u_word = longest_quotient(d, *ctx.common_nodes(ca.region, cb.region))
                    got = word_element(d, u_word)
                    assert (got.mat, got.length) == (u.mat, u.length), name
                    us += 1
                    for x in ctx.type_one_nodes(ca.nodes):
                        for y in ctx.type_one_nodes(cb.nodes):
                            vx = dominant_mapper(d, ca.nodes, simple_root(d, x), ca.theta)
                            vy = dominant_mapper(d, cb.nodes, simple_root(d, y), cb.theta)
                            want = product(u, from_word(d, vx), from_word(d, vy))
                            got = word_element(d, u_word + ctx.theta_mapper(ca, x)
                                               + ctx.theta_mapper(cb, y))
                            assert (got.mat, got.length) == (want.mat, want.length), (name, x, y)
                            pairs += 1
    assert (gradings, minima, us, pairs) == (146, 323, 46, 108)


def type_two_gradings(sweep):
    for name, ctx, _ in sweep:
        walls = [w for w in ctx.walls if w.kind == "component" and w.wall_type == 2]
        if walls:
            yield name, ctx, walls


def test_special_involutions_reject_non_involution(sweep, monkeypatch):
    # s*s_i for an ascent i with s(alpha_i) != alpha_i: s_i does not commute
    # with s, so the product does not square to the identity
    def bent(ctx, comp):
        s = word_element(ctx.d, ctx.special_involution(comp))
        i = next(i for i in ctx.d.nodes
                 if s.extend(i) and s.mat[i] != simple_root(ctx.d, i))
        return s.word + (i,)

    mutated = 0
    for name, ctx, walls in type_two_gradings(sweep):
        assert check_special_involutions(ctx).passed, name
        bent_words = {w.component.index: bent(ctx, w.component) for w in walls}
        with monkeypatch.context() as m:
            m.setattr(ctx, "special_involution", lambda comp: bent_words[comp.index])
            r = check_special_involutions(ctx)
        s = from_word(ctx.d, bent(ctx, walls[0].component))
        assert product(s, s).length != 0, name
        assert not r.passed, name
        assert r.detail == f"comp {walls[0].component.index}: special element is not an involution"
        mutated += 1
    assert mutated == 48


def with_type_two_walls(ctx, change):
    """A copy of the context whose type-2 walls are `change`d."""
    bad = copy.copy(ctx)
    bad.walls = tuple(change(w) if w.kind == "component" and w.wall_type == 2 else w
                      for w in ctx.walls)
    return bad


def test_special_involutions_reject_wrong_image(sweep):
    # each type-2 wall root raised by delta, another real root: the special
    # element is kept, and its length, inversions and reflection are read off
    # the component, so only the image of theta sees the change
    mutated = 0
    for name, ctx, walls in type_two_gradings(sweep):
        bad = with_type_two_walls(ctx, lambda w: w._replace(root=add(w.root, ctx.delta)))
        r = check_special_involutions(bad)
        assert not r.passed, name
        assert r.detail == f"comp {walls[0].component.index}: wrong image of the highest root"
        mutated += 1
    assert mutated == 48


def test_special_involutions_reject_wrong_inversions(sweep):
    # each type-2 component's pairing row negated: the special element is
    # read off its region, unchanged, so only the predicted inversion set,
    # the roots pairing to -2 with the row, sees the change
    def negated(w):
        comp = w.component
        return w._replace(component=comp._replace(
            pairing_row=tuple(-t for t in comp.pairing_row)))

    mutated = 0
    for name, ctx, walls in type_two_gradings(sweep):
        r = check_special_involutions(with_type_two_walls(ctx, negated))
        assert not r.passed, name
        assert r.detail == f"comp {walls[0].component.index}: inversion set mismatch"
        mutated += 1
    assert mutated == 48


def test_special_involutions_refuse_unreduced_word(monkeypatch):
    # the walk from the identity reads each letter's column: a negative one
    # is an inversion undone, and the error names the word up to that letter
    ctx = context_for("D5~2", [1])
    word = ctx.special_involution(ctx.components[0])
    monkeypatch.setattr(ctx, "special_involution", lambda comp: word + word[-1:] + (0,))
    with pytest.raises(RuntimeError, match=re.escape(f"word {word + word[-1:]} is not reduced")):
        check_special_involutions(ctx)


def test_special_involutions_reject_wrong_reflection(sweep, monkeypatch):
    # with delta doubled the reference is the reflection in 2*delta - theta,
    # another real root; the special element itself is kept, so only the
    # k = 2 comparison sees the change
    mutated = 0
    for name, ctx, walls in type_two_gradings(sweep):
        if ctx.k != 2:
            continue
        true = {w.component.index: ctx.special_involution(w.component) for w in walls}
        assert ctx.odd_height_one_roots  # cached before delta is changed
        bad = copy.copy(ctx)
        bad.delta = tuple(2 * m for m in ctx.delta)
        with monkeypatch.context() as m:
            m.setattr(bad, "special_involution", lambda comp: true[comp.index])
            r = check_special_involutions(bad)
        assert not r.passed, name
        assert r.detail == (
            f"comp {walls[0].component.index}: not the reflection in delta minus theta"
        ), name
        mutated += 1
    # 44 of the 48 gradings with a type-2 wall have k = 2
    assert mutated == 44


def oracle_gradings():
    """The 146 gradings the oracle tests share: TABLE_LABELS and E8~1, adjoint
    included, not folded by diagram symmetry."""
    for label in TABLE_LABELS + ["E8~1"]:
        for spec in catalog_involutions(load_diagram(label), include_adjoint=True,
                                        dedupe=False):
            yield spec.describe(), analyze(spec)


def test_integer_kernel_matches_fraction_reference():
    # over S1, the walls and the even positive roots: the pairing against the
    # Cartan rows, the form against the Fraction sum over the symmetrizer
    gradings = checked = 0
    for name, ctx in oracle_gradings():
        d = ctx.d
        gradings += 1
        walls = [w.root for w in ctx.walls]
        targets = [*d.simple_roots, *walls]
        for a in sorted(ctx.odd_height_one_roots | ctx.even_positive_roots | set(walls)):
            nrm = fraction_form(d, a, a)
            assert type(norm_sq(d, a)) is Fraction and norm_sq(d, a) == nrm, (name, a)
            assert is_long(d, a) == (nrm == 2), (name, a)
            for comp in ctx.components:
                top = max(2 * d.symmetrizer[i] for i in comp.nodes)
                assert is_long(d, a, comp.nodes) == (nrm == top), (name, a, comp.nodes)
            want = 1 if nrm == 2 and not ctx.is_complex(a) else 2
            assert ctx.root_type(a) == want, (name, a)
            for i in d.nodes:
                assert pair(d, a, i) == sum(d.cartan[i][j] * a[j] for j in d.nodes)
            for b in targets:
                ab = fraction_form(d, b, a)
                assert bilinear(d, b, a) == ab, (name, a, b)
                c = 2 * ab / nrm
                assert c.denominator == 1 and coroot_pair(d, a, b) == c, (name, a, b)
            checked += 1
    assert (gradings, checked) == (146, 5582)


def test_enumerate_poset_matches_scan_reference():
    # the incremental BFS on packed columns against the tuple one that looks
    # up every column: the same elements, words, masks and covers in the
    # same order
    gradings = 0
    for name, ctx in oracle_gradings():
        gradings += 1
        top = max(m.bit_count() for m in enumerate_poset(ctx).masks)
        for max_length in (None, 0, 2, max(top - 1, 0)):
            got = enumerate_poset(ctx, max_length)
            want = scan_poset(ctx, max_length)
            mats = [tuple(unpack(c, ctx.d.size) for c in cols) for cols in got.cols]
            assert mats == want.mats, name
            assert list(map(got.word, range(len(got)))) == want.words, name
            assert list(got.masks) == want.masks, (name, max_length)
            assert list(got.edges) == want.edges, (name, max_length)
            assert got.by_mask == want.by_mask, (name, max_length)
            assert got.complete == want.complete, (name, max_length)
    assert gradings == 146


_NO_FRACTION_RUN = """
import sys
from borelab import analyze, enumerate_poset, involution, load_diagram, verify_all
from borelab.report import render_json, result_document
for label in ("E8~1", "D5~2"):
    poset = enumerate_poset(analyze(involution(load_diagram(label), [1])))
    results = verify_all(poset)
    render_json(result_document(poset, results))
    print(label, len(results), [r.line() for r in results if not r.passed])
print("fractions" in sys.modules)
"""


def test_verify_all_builds_no_fraction():
    # the kernel is integer: a fresh interpreter builds the context and the
    # poset, runs verify_all and renders the document without ever importing
    # fractions (reading the symmetrizer or calling bilinear would).
    # E8~1{1} is simply laced with k = 1; D5~2{1} has k = 2, two root
    # lengths and a type-2 wall, so coroot_pair runs there too
    src = os.path.dirname(os.path.dirname(borelab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _NO_FRACTION_RUN], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["E8~1 12 []", "D5~2 12 []", "False"]
