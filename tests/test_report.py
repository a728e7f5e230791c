import json

import jsonschema
import pytest

from borelab.minuscule import CheckResult, verify_all
from borelab.poset import enumerate_poset
from borelab.report import RESULT_SCHEMA, render_dot, render_json, result_document


def test_document_validates(d5):
    _, p = d5
    doc = result_document(p)
    jsonschema.validate(doc, RESULT_SCHEMA)
    doc = result_document(p, verify_all(p))
    jsonschema.validate(doc, RESULT_SCHEMA)
    assert all(c["passed"] for c in doc["checks"])


def test_document_content(d5):
    ctx, p = d5
    doc = result_document(p)
    assert doc["diagram"] == "D5~2"
    assert doc["twist"] == 2 and doc["k"] == 2
    assert doc["odd_nodes"] == [1]
    assert doc["poset_size"] == 15 and doc["cover_count"] == 19
    assert len(doc["walls"]) == 3
    assert doc["walls"][1]["root"] == [2, 2, 1, 0, 0]
    sizes = {(f["alpha"], f["wall"]): f["size"] for f in doc["families"]}
    assert sizes == {(0, 1): 1, (1, 2): 4, (2, 2): 1, (1, 3): 1}
    assert sorted(m["dimension"] for m in doc["maxima"]) == [3, 7, 7]
    for fam in doc["families"]:
        assert len(fam["min_word"]) >= 1


def test_json_rendering_is_canonical(d5):
    _, p = d5
    a = render_json(result_document(p))
    b = render_json(result_document(p))
    assert a == b
    assert a.endswith("\n")
    keys = list(json.loads(a))
    assert keys == sorted(keys)


def test_dot_output(d5):
    _, p = d5
    dot = render_dot(p)
    assert dot.startswith("digraph poset {")
    assert dot.count(" -> ") == len(p.edges)
    assert dot.count("[label=") == len(p)
    assert dot.count("shape=box") == len(p.maxima)
    assert '"e"' in dot


TRUNCATED = "enumeration truncated at length 2 after 4 elements; longer elements exist"


def test_truncated_poset_fails_only_completeness(d5):
    # the library's side of a truncated poset, which the CLI reaches only
    # through `enumerate --max-length`
    ctx, _ = d5
    short = enumerate_poset(ctx, max_length=2)
    assert verify_all(short) == [CheckResult("complete", False, TRUNCATED)]


@pytest.mark.parametrize("render", [
    result_document,
    lambda p: result_document(p, verify_all(p)),
    render_dot,
], ids=["document", "verified document", "dot"])
def test_truncated_poset_not_rendered(d5, render):
    ctx, _ = d5
    with pytest.raises(ValueError) as exc:
        render(enumerate_poset(ctx, max_length=2))
    assert str(exc.value) == TRUNCATED
