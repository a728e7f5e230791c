"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with its measured runtime and
the stated budget.  All numeric comparisons are exact integer equalities.
"""

import hashlib
import importlib.util
import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from borelab.cartan import load_diagram
from borelab.grading import analyze, catalog_involutions, context_for
from borelab.minuscule import verify_all
from borelab.poset import enumerate_poset, maxima_parametrization
from borelab.report import render_json, result_document
from borelab.roots import add, delta, sub, subsystem_closure
from oracles import length_ball, root_kind, word_element

ROOT = Path(__file__).resolve().parent.parent

SWEEP_LABELS = [
    "A1~1", "A2~1", "A3~1", "A4~1", "A5~1", "B2~1", "B3~1", "B4~1",
    "C3~1", "D4~1", "D5~1", "G2~1", "F4~1",
    "A2~2", "A4~2", "A5~2", "D4~2", "D5~2",
]


def report(name, ok, elapsed, budget, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({elapsed:.1f}s / budget {budget}s)"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    t0 = time.time()
    cases = []
    for label in SWEEP_LABELS:
        d = load_diagram(label)
        for spec in catalog_involutions(d, include_adjoint=True):
            ctx = analyze(spec)
            poset = enumerate_poset(ctx)
            cases.append((spec, ctx, poset, verify_all(poset)))
    return time.time() - t0, cases


@pytest.fixture(scope="module")
def e8_case():
    t0 = time.time()
    ctx = context_for("E8~1", [1])
    poset = enumerate_poset(ctx)
    results = verify_all(poset)
    items = maxima_parametrization(poset)
    return time.time() - t0, ctx, poset, results, items


def sweep_check(cases, name):
    bad = []
    for spec, _, _, results in cases:
        for r in results:
            if r.name == name and not r.passed:
                bad.append(f"{spec.describe()}: {r.detail}")
    return bad


def test_criterion_01_adjoint_counts():
    t_all = time.time()
    expected = [("A1~1", 2), ("A2~1", 4), ("A3~1", 8), ("B2~1", 4),
                ("G2~1", 4), ("B3~1", 8), ("A4~1", 16)]
    ok = True
    details = []
    for label, want in expected:
        t0 = time.time()
        d = load_diagram(label)
        adjoint_node = d.marks.index(1)
        poset = enumerate_poset(context_for(label, [adjoint_node], adjoint=True))
        dt = time.time() - t0
        good = len(poset) == want and dt < 1.0
        ok = ok and good
        details.append(f"{label}:{len(poset)}")
    report("criterion 1 (adjoint poset sizes are 2^rank)", ok,
           time.time() - t_all, 7, " ".join(details))


def test_criterion_02_e8(e8_case):
    elapsed, ctx, poset, results, items = e8_case
    ok = elapsed < 60.0
    w1, w2, w3 = ctx.walls
    ok = ok and len(poset.maxima) == 14
    expected_dims = {
        "alpha6@wall2": 12, "alpha5@wall2": 13, "alpha4@wall2": 14,
        "alpha8@wall2": 14, "alpha3@wall2": 16, "alpha2@wall2": 20,
        "alpha1@wall3": 29,
        "alpha0&alpha2": 28, "alpha0&alpha3": 28, "alpha0&alpha4": 28,
        "alpha0&alpha5": 28, "alpha0&alpha6": 28, "alpha0&alpha7": 28,
        "alpha0&alpha8": 28,
    }
    got = {it.label: it.dimension for it in items}
    ok = ok and got == expected_dims
    for it in items:
        ok = ok and poset.length(it.position) == it.dimension
    # nonempty families appear exactly at the predicted (alpha, wall) pairs
    fam = {(a, w.index) for w in ctx.walls for a in ctx.d.nodes if poset.family(a, w)}
    want = ({(k, 1) for k in range(1, 9)}
            | {(k, 2) for k in [0, 1, 2, 3, 4, 5, 6, 8]}
            | {(1, 3)})
    ok = ok and fam == want
    ok = ok and w2.blocked == (7,) and w3.blocked == (1,)
    ok = ok and all(r.passed for r in results)
    report("criterion 2 (exceptional rank-8 case)", ok, elapsed, 60,
           f"|poset|={len(poset)}, 14 maxima with exact dimensions")


def test_criterion_03_d5_twisted():
    t0 = time.time()
    ctx = context_for("D5~2", [1])
    poset = enumerate_poset(ctx)
    fam = {(a, w.index) for w in ctx.walls for a in ctx.d.nodes if poset.family(a, w)}
    ok = fam == {(0, 1), (1, 2), (1, 3), (2, 2)}
    ok = ok and sorted(map(poset.length, poset.maxima)) == [3, 7, 7]
    ok = ok and ctx.perp_nodes(2) == (0, 4)
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    report("criterion 3 (twisted rank-5 case)", ok, elapsed, 5,
           f"families {sorted(fam)}")


def test_criterion_04_mid_rank_goldens():
    t0 = time.time()
    b7 = context_for("B7~1", [4])
    c1, c2 = b7.components
    ok = c1.region == (3, 4, 5, 6, 7) and c1.region_in_component == (3,)
    ok = ok and c2.region == (0, 1, 2, 3, 4, 5) and c2.region_in_component == (5,)
    e6 = context_for("E6~1", [6])
    ok = ok and e6.components[0].region == (1, 2, 3, 4, 5, 6)
    ok = ok and e6.components[1].region_in_component == (2, 3, 4)
    ok = ok and e6.walls[0].blocked == ()
    ok = ok and e6.walls[1].blocked == (1, 5)
    a6 = context_for("A6~1", [0, 3])
    ok = ok and len(a6.walls) == 4
    for ctx in (b7, e6, a6):
        results = verify_all(enumerate_poset(ctx))
        ok = ok and all(r.passed for r in results)
    report("criterion 4 (mid-rank golden cases)", ok, time.time() - t0, 60,
           "B7/E6/A6 regions, blocked sets, and full verification")


def test_criterion_05_minimum_theorem(sweep):
    build, cases = sweep
    t0 = time.time()
    bad = sweep_check(cases, "family_minima") + sweep_check(cases, "family_completeness")
    elapsed = build + (time.time() - t0)
    ok = not bad and elapsed < 600
    report("criterion 5 (family minima across the sweep)", ok, elapsed, 600,
           bad[0] if bad else f"{len(cases)} gradings, all families at predicted "
           "indices with closed-form minima")


def test_criterion_06_quotient_isomorphism(sweep):
    _, cases = sweep
    t0 = time.time()
    bad = sweep_check(cases, "coset_isomorphism")
    ok = not bad
    report("criterion 6 (families are coset posets)", ok, time.time() - t0, 600,
           bad[0] if bad else "order isomorphism via translation in every family")


def test_criterion_07_intersections(sweep, e8_case):
    _, cases = sweep
    _, _, _, e8_results, _ = e8_case
    t0 = time.time()
    bad = sweep_check(cases, "intersections")
    for r in e8_results:
        if r.name == "intersections" and not r.passed:
            bad.append(f"E8: {r.detail}")
    report("criterion 7 (intersection criterion and sizes)", not bad,
           time.time() - t0, 600,
           bad[0] if bad else "criterion, minima, and cardinalities in both directions")


def _abelian_ideals(d, nodes):
    """Brute force: upward-closed subsets of the positive roots with no two
    members summing to a root."""
    pos = sorted(subsystem_closure(d, nodes))
    idx = {r: i for i, r in enumerate(pos)}
    ups = []
    for r in pos:
        above = [idx[add(r, s)] for s in map(lambda j: tuple(
            1 if t == j else 0 for t in range(d.size)), nodes)
            if add(r, s) in idx]
        ups.append(above)
    ideals = []
    for bits in itertools.product([0, 1], repeat=len(pos)):
        if any(bits[i] and not bits[j] for i in range(len(pos)) for j in ups[i]):
            continue
        chosen = [pos[i] for i in range(len(pos)) if bits[i]]
        if any(root_kind(d, add(a, b)) != "none"
               for i, a in enumerate(chosen) for b in chosen[i + 1:]):
            continue
        ideals.append(frozenset(chosen))
    return set(ideals)


def test_criterion_08_maxima_and_oracle(sweep, e8_case):
    _, cases = sweep
    _, _, _, e8_results, _ = e8_case
    t0 = time.time()
    bad = sweep_check(cases, "maxima_parametrization")
    for r in e8_results:
        if r.name == "maxima_parametrization" and not r.passed:
            bad.append(f"E8: {r.detail}")
    # independent oracle for small adjoint cases: Borel-stable abelian
    # subsets of the finite positive roots
    for label in ["A1~1", "A2~1", "A3~1", "B2~1", "B3~1", "C3~1", "G2~1"]:
        d = load_diagram(label)
        node = d.marks.index(1)
        ctx = context_for(label, [node], adjoint=True)
        poset = enumerate_poset(ctx)
        finite = [i for i in d.nodes if i != node]
        oracle = _abelian_ideals(d, finite)
        dd = delta(d)
        images = {
            frozenset(sub(dd, n) for n in word_element(d, poset.word(q)).inversions)
            for q in range(len(poset))
        }
        if images != oracle:
            bad.append(f"{label}: ideal sets disagree with the enumeration")
    report("criterion 8 (maxima parametrization and ideal oracle)", not bad,
           time.time() - t0, 120,
           bad[0] if bad else "exact dimension formulas; brute-force ideals match")


def test_criterion_09_length_identities(sweep, e8_case):
    _, cases = sweep
    _, _, _, e8_results, _ = e8_case
    t0 = time.time()
    bad = sweep_check(cases, "length_identities")
    for r in e8_results:
        if r.name == "length_identities" and not r.passed:
            bad.append(f"E8: {r.detail}")
    report("criterion 9 (length identities)", not bad, time.time() - t0, 600,
           bad[0] if bad else "minimum and pair-element lengths match closed forms")


def test_criterion_10_wall_avoidance_balls():
    t0 = time.time()
    bad = []
    for label in ["A2~1", "C2~1", "G2~1", "A2~2", "D3~2"]:
        d = load_diagram(label)
        ball = length_ball(d, 8)
        for spec in catalog_involutions(d, include_adjoint=True):
            ctx = analyze(spec)
            s1 = ctx.odd_height_one_roots
            blocked = ctx.bounding_roots()
            for w in ball:
                if (w.inversions <= s1) != (not (w.inversions & blocked)):
                    bad.append(f"{spec.describe()} at {w.word}")
    elapsed = time.time() - t0
    ok = not bad and elapsed < 120
    report("criterion 10 (wall avoidance on full length balls)", ok, elapsed, 120,
           bad[0] if bad else "exhaustive radius-8 balls over five small diagrams")


def test_criterion_11_hermitian_half():
    t0 = time.time()
    bad = []
    for label in ["A2~1", "A3~1", "A4~1", "A5~1", "A6~1", "C3~1", "D4~1", "D5~1"]:
        d = load_diagram(label)
        for spec in catalog_involutions(d):
            if len(spec.odd_nodes) != 2:
                continue
            ctx = analyze(spec)
            poset = enumerate_poset(ctx)
            half = len(ctx.odd_height_one_roots) // 2
            for r in verify_all(poset):
                if r.name == "hermitian_half" and not r.passed:
                    bad.append(f"{spec.describe()}: {r.detail}")
            top = max(map(poset.length, poset.maxima))
            if top != half:
                bad.append(f"{spec.describe()}: top {top} != {half}")
    report("criterion 11 (hermitian half dimension)", not bad,
           time.time() - t0, 60,
           bad[0] if bad else "odd-wall maxima have half the odd dimension")


def test_criterion_12_structural_suites(sweep):
    _, cases = sweep
    t0 = time.time()
    bad = []
    for name in ["bounding_equivalence", "poset_basics", "pairing_structure",
                 "structural", "special_involutions", "family_coverage"]:
        bad.extend(sweep_check(cases, name))
    report("criterion 12 (structural suites)", not bad, time.time() - t0, 600,
           bad[0] if bad else "biconvexity, pairing structure, involution closed "
           "forms, coverage of maxima")


def load_workloads():
    """perfbench/workloads.py, read where it is: its digests are the reference."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", list(WORKLOADS.CLI))
def test_golden_cli_output(name):
    # the benchmark's CLI workloads print exactly the bytes it checks
    args, digest = WORKLOADS.CLI[name]
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    r = subprocess.run([sys.executable, "-m", "borelab", *args],
                       capture_output=True, env=env)
    assert r.returncode == 0, r.stderr.decode()
    assert hashlib.sha256(r.stdout).hexdigest() == digest


def test_golden_sweep_documents(sweep):
    # the 50 documents of the sweep, in label and catalog order
    _, cases = sweep
    assert SWEEP_LABELS == WORKLOADS.SWEEP_LABELS
    assert len(cases) == WORKLOADS.SWEEP_GRADINGS
    h = hashlib.sha256()
    for _, _, poset, results in cases:
        h.update(render_json(result_document(poset, results)).encode())
    assert h.hexdigest() == WORKLOADS.SWEEP_DIGEST
