"""One fresh interpreter of the benchmark: set-up, the sweep18 loop, or a traced run.

    python3 perfbench/child.py setup WORKLOAD
    python3 perfbench/child.py sweep SEED
    python3 perfbench/child.py trace WORKLOAD SEED

run.py starts it from the checkout root with PYTHONPATH set to the checkout's
src/ and reads the JSON object it prints.  borelab is imported inside the
functions so that a traced run can time the import.
"""

import hashlib
import importlib
import inspect
import json
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

from workloads import CLI, SWEEP_LABELS, sweep_order

SRC = Path(__file__).resolve().parent.parent / "src"


def _check_source(borelab):
    if SRC not in Path(borelab.__file__).resolve().parents:
        sys.exit(f"error: borelab was imported from {borelab.__file__}, not from {SRC}")


def _odd_nodes(args):
    """The --pi1 node list, read as the CLI reads it."""
    return [int(x) for x in args.pi1.split(",") if x != ""]


def _sweep_digest(docs):
    """sha256 over the sweep's documents in SWEEP_LABELS order."""
    h = hashlib.sha256()
    for label in SWEEP_LABELS:
        for text in docs[label]:
            h.update(text.encode())
    return h.hexdigest()


def setup(workload):
    """Import borelab and build the workload's graded contexts, nothing more."""
    import borelab
    from borelab import analyze, catalog_involutions, involution, load_diagram

    _check_source(borelab)
    if workload == "sweep18":
        for label in SWEEP_LABELS:
            for spec in catalog_involutions(load_diagram(label), include_adjoint=True):
                analyze(spec)
    else:
        from borelab.cli import build_parser

        args = build_parser().parse_args(CLI[workload][0])
        analyze(involution(load_diagram(args.type), _odd_nodes(args), adjoint=args.adjoint))
    return {}


def sweep(seed):
    """Every sweep18 grading through the library, as `export --all` runs it."""
    import borelab
    from borelab import analyze, catalog_involutions, enumerate_poset, load_diagram, verify_all
    from borelab.report import render_json, result_document

    _check_source(borelab)
    docs, failed = {}, 0
    for label in sweep_order(seed):
        texts = []
        for spec in catalog_involutions(load_diagram(label), include_adjoint=True):
            poset = enumerate_poset(analyze(spec))
            checks = verify_all(poset)
            failed += sum(not c.passed for c in checks)
            texts.append(render_json(result_document(poset, checks)))
        docs[label] = texts
    return {
        "digest": _sweep_digest(docs),
        "documents": sum(map(len, docs.values())),
        "failed_checks": failed,
    }


class Trace:
    """Per-layer seconds and counts, summed over the gradings of one run."""

    def __init__(self):
        self.metrics = {}

    def add(self, name, value):
        self.metrics[name] = self.metrics.get(name, 0) + value

    def call(self, name, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.add(name, perf_counter() - t0)
        return out


def _verify_steps(mn, poset):
    """verify_all's checks, in its order, with its default structural_limit."""
    ctx = poset.ctx
    limit = inspect.signature(mn.verify_all).parameters["structural_limit"].default
    steps = [
        partial(mn.check_bounding_equivalence, poset),
        partial(mn.check_poset_basics, poset),
        partial(mn.check_pairing_structure, ctx),
        partial(mn.check_family_minima, poset),
        partial(mn.check_family_completeness, poset),
        partial(mn.check_coset_isomorphism, poset),
        partial(mn.check_intersections, poset),
        partial(mn.check_maxima, poset),
        partial(mn.check_length_identities, ctx),
        partial(mn.check_special_involutions, ctx),
        partial(mn.check_structural, poset, limit),
        partial(mn.check_family_coverage, poset),
    ]
    if ctx.k == 1 and len(ctx.odd) == 2:
        steps.append(partial(mn.check_hermitian_half, poset))
    if ctx.spec.adjoint:
        steps.append(partial(mn.check_adjoint_count, poset))
    return steps


def _traced_grading(tr, bl, make_spec, verify):
    """One grading through every layer, each call timed; returns (document, failed checks)."""
    from borelab import minuscule, report

    ctx = tr.call("grading.analyze_s", lambda: bl.analyze(make_spec()))
    tr.add("grading.contexts", 1)
    tr.add("grading.s1_roots", len(tr.call("grading.s1_s", lambda: ctx.odd_height_one_roots)))
    tr.call("grading.even_roots_s", lambda: ctx.even_positive_roots)
    poset = tr.call("minuscule.enumerate_s", bl.enumerate_poset, ctx)
    tr.add("minuscule.elements", len(poset))
    tr.add("minuscule.covers", len(poset.edges))
    tr.add("minuscule.maxima", len(tr.call("minuscule.maxima_s", bl.maxima_parametrization, poset)))
    checks, failed = None, 0
    if verify:
        t0 = perf_counter()
        checks = []
        for step in _verify_steps(minuscule, poset):
            t1 = perf_counter()
            result = step()
            tr.add(f"minuscule.verify.{result.name}_s", perf_counter() - t1)
            checks.append(result)
            if result.name == "structural":
                scope = result.detail.split()[0]
                tr.add("minuscule.verify.structural_elements",
                       len(poset) if scope == "all" else int(scope))
        tr.add("minuscule.verify.total_s", perf_counter() - t0)
        failed = sum(not c.passed for c in checks)
        tr.add("minuscule.verify.failed_checks", failed)
    doc = tr.call("report.result_document_s", report.result_document, poset, checks)
    text = tr.call("report.render_json_s", report.render_json, doc)
    tr.add("report.json_bytes", len(text.encode()))
    return text, failed


def trace(workload, seed):
    """The workload through the public functions of each module, timing every call."""
    tr = Trace()
    if workload == "sweep18":
        import borelab as bl

        _check_source(bl)
        docs, failed = {}, 0
        for label in sweep_order(seed):
            d = tr.call("cartan.load_diagram_s", bl.load_diagram, label)
            specs = tr.call("grading.catalog_s", bl.catalog_involutions, d, True)
            docs[label] = []
            for spec in specs:
                text, bad = _traced_grading(tr, bl, lambda: spec, verify=True)
                docs[label].append(text)
                failed += bad
        digest = _sweep_digest(docs)
    else:
        cli = tr.call("cli.import_s", importlib.import_module, "borelab.cli")
        import borelab as bl

        _check_source(bl)
        args = tr.call("cli.parse_s", lambda: cli.build_parser().parse_args(CLI[workload][0]))
        d = tr.call("cartan.load_diagram_s", bl.load_diagram, args.type)
        text, failed = _traced_grading(
            tr, bl, lambda: bl.involution(d, _odd_nodes(args), adjoint=args.adjoint),
            verify=args.command == "export",
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
    m = tr.metrics
    m["minuscule.useful_ratio"] = (m["minuscule.elements"] - m["grading.contexts"]) / m["minuscule.covers"]
    return {"digest": digest, "failed_checks": failed, "metrics": m}


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        out = setup(rest[0])
    elif mode == "sweep":
        out = sweep(int(rest[0]))
    elif mode == "trace":
        out = trace(rest[0], int(rest[1]))
    else:
        sys.exit(f"error: unknown mode {mode!r}")
    print(json.dumps(out))
