"""Serialization of enumeration results: canonical JSON and Graphviz DOT.

Documents are fully deterministic — fixed key order, fixed list orders, no
timestamps — so reruns are byte-identical.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional, Sequence

from .poset import MinusculePoset, maxima_parametrization

if TYPE_CHECKING:
    from .minuscule import CheckResult

RESULT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "graded poset enumeration result",
    "type": "object",
    "required": [
        "diagram",
        "twist",
        "k",
        "odd_nodes",
        "adjoint",
        "poset_size",
        "cover_count",
        "walls",
        "families",
        "maxima",
    ],
    "additionalProperties": False,
    "properties": {
        "diagram": {"type": "string"},
        "twist": {"type": "integer", "enum": [1, 2]},
        "k": {"type": "integer", "enum": [1, 2]},
        "odd_nodes": {"type": "array", "items": {"type": "integer"}},
        "adjoint": {"type": "boolean"},
        "poset_size": {"type": "integer", "minimum": 1},
        "cover_count": {"type": "integer", "minimum": 0},
        "walls": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["index", "kind", "type", "root", "family", "blocked"],
                "additionalProperties": False,
                "properties": {
                    "index": {"type": "integer", "minimum": 1},
                    "kind": {"type": "string", "enum": ["component", "odd"]},
                    "type": {"type": "integer", "enum": [1, 2]},
                    "root": {"type": "array", "items": {"type": "integer"}},
                    "family": {"type": "array", "items": {"type": "integer"}},
                    "blocked": {"type": "array", "items": {"type": "integer"}},
                },
            },
        },
        "families": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["alpha", "wall", "size", "min_word"],
                "additionalProperties": False,
                "properties": {
                    "alpha": {"type": "integer"},
                    "wall": {"type": "integer"},
                    "size": {"type": "integer", "minimum": 1},
                    "min_word": {"type": "array", "items": {"type": "integer"}},
                },
            },
        },
        "maxima": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind", "alphas", "walls", "dimension", "word"],
                "additionalProperties": False,
                "properties": {
                    "kind": {"type": "string", "enum": ["component", "pair", "odd"]},
                    "alphas": {"type": "array", "items": {"type": "integer"}},
                    "walls": {"type": "array", "items": {"type": "integer"}},
                    "dimension": {"type": "integer", "minimum": 0},
                    "word": {"type": "array", "items": {"type": "integer"}},
                },
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed", "detail"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "detail": {"type": "string"},
                },
            },
        },
    },
}


def result_document(
    poset: MinusculePoset, checks: Optional[Sequence[CheckResult]] = None
) -> dict:
    ctx = poset.ctx
    walls = [
        {
            "index": w.index,
            "kind": w.kind,
            "type": w.wall_type,
            "root": list(w.root),
            "family": list(w.heads),
            "blocked": list(w.blocked),
        }
        for w in ctx.walls
    ]
    families = []
    for a, w in ctx.families:
        members = poset.family(a, w)
        if not members:
            continue
        families.append(
            {
                "alpha": a,
                "wall": w.index,
                "size": len(members),
                "min_word": list(poset.word(members[0])),  # the shortest
            }
        )
    maxima = [
        {
            "kind": it.kind,
            "alphas": list(it.alphas),
            "walls": list(it.wall_indices),
            "dimension": it.dimension,
            "word": list(poset.word(it.position)),
        }
        for it in maxima_parametrization(poset)
    ]
    doc = {
        "diagram": ctx.d.label,
        "twist": ctx.d.twist,
        "k": ctx.k,
        "odd_nodes": list(ctx.odd),
        "adjoint": ctx.spec.adjoint,
        "poset_size": len(poset),
        "cover_count": poset.cover_count,
        "walls": walls,
        "families": families,
        "maxima": maxima,
    }
    if checks is not None:
        doc["checks"] = [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ]
    return doc


def render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_dot(poset: MinusculePoset) -> str:
    """Hasse diagram in Graphviz DOT form, ranked by length (ValueError if truncated)."""
    lines = ["digraph poset {", "  rankdir=BT;"]
    maxima = set(poset.maxima)
    # element p's word is its parent's plus its last letter, and parents
    # come first, so each label extends one already spelled
    labels = ["e"]
    for i in range(len(poset)):
        if i:
            q, letter = poset.parents[i], str(poset.letters[i])
            labels.append(f"{labels[q]}.{letter}" if q else letter)
        shape = ' shape=box' if i in maxima else ""
        lines.append(f'  n{i} [label="{labels[i]}"{shape}];')
    for a, b in poset.edges:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
