"""Command-line front end.

Exit codes: 0 success, 1 verification failure or a closed stdout pipe, 2
usage errors (including unknown diagram labels, invalid node flags and
unwritable --out paths).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from .cartan import load_diagram
from .grading import GradedContext, analyze, catalog_involutions, involution
from .minuscule import enumerate_poset, maxima_parametrization, verify_all
from .report import render_dot, render_json, result_document


def non_negative_int(text: str) -> int:
    """A length: ASCII digits once stripped, as `node_list` reads a node."""
    digits = text.strip()
    if digits.isascii() and digits.isdigit():
        return int(digits)
    if digits.startswith("-") and digits[1:].isascii() and digits[1:].isdigit():
        raise argparse.ArgumentTypeError(f"must be at least 0, not {digits}")
    raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")


def node_list(text: str) -> str:
    """Check that the text is a comma-separated list of distinct node
    numbers, each ASCII digits once stripped (`int` also reads '1_0', '+1')."""
    if not text.strip():
        raise argparse.ArgumentTypeError("no node number given")
    seen = set()
    for n, item in enumerate(text.split(","), start=1):
        digits = item.strip()
        if not digits:
            raise argparse.ArgumentTypeError(f"item {n} of {text!r} is empty")
        if not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError(f"{item!r} is not a node number")
        node = int(digits)
        if node in seen:
            raise argparse.ArgumentTypeError(f"node {node} is given twice")
        seen.add(node)
    return text


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", required=True, metavar="LABEL",
                   help="affine diagram label, e.g. E8~1 or D5~2")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--pi1", type=node_list, metavar="NODES",
                       help="comma-separated odd node numbers, e.g. 0,3")
    which.add_argument("--all", action="store_true",
                       help="run over every involution of the diagram")
    p.add_argument("--adjoint", action="store_true",
                   help="adjoint grading (single mark-1 odd node)")
    p.add_argument("--dedupe", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="fold involutions equivalent under diagram symmetry")
    p.add_argument("--max-length", type=non_negative_int, default=None, metavar="L",
                   help="truncate the enumeration at this length")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borelab",
        description="Posets of Borel-stable abelian subalgebras attached to "
                    "order-2 gradings, via affine Weyl group combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the gradings of a diagram")
    p.add_argument("--type", required=True, metavar="LABEL")
    p.add_argument("--adjoint", action="store_true",
                   help="include adjoint gradings in the listing")
    p.add_argument("--dedupe", action=argparse.BooleanOptionalAction, default=True)

    p = sub.add_parser("enumerate", help="enumerate a poset and summarize it")
    _add_common(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", metavar="PATH", default=None)

    p = sub.add_parser("maxima", help="list the maximal elements with dimensions")
    _add_common(p)

    p = sub.add_parser("verify", help="run every structural check")
    _add_common(p)

    p = sub.add_parser("export", help="write result documents or DOT graphs")
    _add_common(p)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out", metavar="PATH",
                   default=os.environ.get("BORELAB_OUT"),
                   help="output file, or directory with --all "
                        "(default: $BORELAB_OUT)")
    return parser


def _contexts(args: argparse.Namespace) -> list[GradedContext]:
    d = load_diagram(getattr(args, "type"))
    if getattr(args, "all", False):
        specs = catalog_involutions(d, include_adjoint=True, dedupe=args.dedupe)
        return [analyze(s) for s in specs]
    odd = [int(x) for x in args.pi1.split(",")]
    return [analyze(involution(d, odd, adjoint=args.adjoint))]


@contextmanager
def _writing(path: str) -> Iterator[None]:
    """Turn an OSError on `path` into the usage error "cannot write PATH"."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write(path: str, text: str) -> None:
    with _writing(path), open(path, "w") as fh:
        fh.write(text)


def _slug(ctx: GradedContext) -> str:
    nodes = "-".join(str(i) for i in ctx.odd)
    tail = "__adjoint" if ctx.spec.adjoint else ""
    return f"{ctx.d.label}__pi1-{nodes}{tail}"


def _cmd_catalog(args: argparse.Namespace) -> int:
    d = load_diagram(getattr(args, "type"))
    specs = catalog_involutions(d, include_adjoint=args.adjoint, dedupe=args.dedupe)
    for s in specs:
        print(s.describe())
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    out = []
    for ctx in _contexts(args):
        poset = enumerate_poset(ctx, max_length=args.max_length)
        if args.format == "json":
            out.append(render_json(result_document(poset)))
        else:
            maxima = "unknown (enumeration truncated)"
            if poset.complete:
                dims = sorted(map(poset.length, poset.maxima))
                maxima = f"{len(poset.maxima)}   dimensions: {dims}"
            lines = [
                f"{ctx.spec.describe()}",
                f"  elements: {len(poset)}   covers: {len(poset.edges)}"
                + ("" if poset.complete else "   (truncated)"),
                f"  maxima:   {maxima}",
            ]
            for w in ctx.walls:
                fam = ",".join(str(a) for a in w.heads)
                lines.append(
                    f"  wall {w.index} ({w.kind}, type {w.wall_type}): "
                    f"root {list(w.root)}  families at [{fam}]"
                )
            out.append("\n".join(lines) + "\n")
    text = "".join(out)
    if getattr(args, "out", None):
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_maxima(args: argparse.Namespace) -> int:
    for ctx in _contexts(args):
        poset = enumerate_poset(ctx, max_length=args.max_length)
        items = maxima_parametrization(poset)
        print(ctx.spec.describe())
        for it in items:
            word = ".".join(map(str, poset.word(it.position)))
            print(f"  {it.label:24s} {it.kind:9s} dim {it.dimension:3d}  word {word}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    failed = False
    for ctx in _contexts(args):
        poset = enumerate_poset(ctx, max_length=args.max_length)
        print(ctx.spec.describe())
        for r in verify_all(poset):
            print(" ", r.line())
            failed = failed or not r.passed
    return 1 if failed else 0


def _cmd_export(args: argparse.Namespace) -> int:
    if args.all and not args.out:
        raise ValueError("--all export needs --out (a directory)")
    contexts = _contexts(args)
    if args.all:
        with _writing(args.out):
            os.makedirs(args.out, exist_ok=True)
    for ctx in contexts:
        poset = enumerate_poset(ctx, max_length=args.max_length)
        if args.format == "dot":
            text = render_dot(poset)
        else:
            text = render_json(result_document(poset, verify_all(poset)))
        if args.all:
            ext = "dot" if args.format == "dot" else "json"
            path = os.path.join(args.out, f"{_slug(ctx)}.{ext}")
            _write(path, text)
            print(path)
        elif args.out:
            _write(args.out, text)
        else:
            sys.stdout.write(text)
    return 0


_DISPATCH = {
    "catalog": _cmd_catalog,
    "enumerate": _cmd_enumerate,
    "maxima": _cmd_maxima,
    "verify": _cmd_verify,
    "export": _cmd_export,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: what is left of stdout goes to devnull, the
        # idiom of Python's `signal` docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
