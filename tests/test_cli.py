import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from borelab.report import RESULT_SCHEMA


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "borelab", *args],
        capture_output=True, text=True, env=env,
    )


def test_catalog():
    r = run_cli("catalog", "--type", "E8~1", "--adjoint")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "E8~1 odd={1}", "E8~1 odd={7}", "E8~1 adjoint odd={0}"]


def test_catalog_dedupe_flag():
    full = run_cli("catalog", "--type", "A6~1", "--no-dedupe")
    folded = run_cli("catalog", "--type", "A6~1")
    assert len(full.stdout.splitlines()) == 21
    assert len(folded.stdout.splitlines()) == 3


def test_enumerate_text():
    r = run_cli("enumerate", "--type", "D5~2", "--pi1", "1")
    assert r.returncode == 0
    assert "elements: 15" in r.stdout
    assert "maxima:   3" in r.stdout
    assert "wall 2 (component, type 1)" in r.stdout


def test_enumerate_json_validates():
    r = run_cli("enumerate", "--type", "D5~2", "--pi1", "1", "--format", "json")
    doc = json.loads(r.stdout)
    jsonschema.validate(doc, RESULT_SCHEMA)
    assert doc["poset_size"] == 15


def test_maxima_listing():
    r = run_cli("maxima", "--type", "E6~1", "--pi1", "6")
    assert r.returncode == 0
    lines = [l for l in r.stdout.splitlines() if l.startswith("  ")]
    assert len(lines) == 9


def test_verify_ok_and_failing():
    ok = run_cli("verify", "--type", "D5~2", "--pi1", "1")
    assert ok.returncode == 0
    assert "[PASS]" in ok.stdout and "[FAIL]" not in ok.stdout
    # truncation breaks the structure, so verification must fail loudly
    bad = run_cli("verify", "--type", "D5~2", "--pi1", "1", "--max-length", "2")
    assert bad.returncode == 1
    assert "[FAIL]" in bad.stdout


def test_verify_all_gradings():
    r = run_cli("verify", "--type", "B3~1", "--all")
    assert r.returncode == 0
    assert r.stdout.count("odd=") == 4  # three gradings plus the adjoint one


def test_usage_errors():
    assert run_cli("verify", "--type", "D4~3", "--pi1", "0").returncode == 2
    assert run_cli("verify", "--type", "A3~2", "--pi1", "0").returncode == 2
    assert run_cli("catalog", "--type", "E08~1").returncode == 2  # leading zero
    assert run_cli("enumerate", "--type", "A2~1").returncode == 2  # no --pi1
    assert run_cli("enumerate", "--type", "A2~1", "--pi1", "0").returncode == 2
    assert run_cli("frobnicate").returncode == 2
    r = run_cli("verify", "--type", "D4~3", "--pi1", "0")
    assert "twist order 3" in r.stderr


def test_export_single_and_env(tmp_path):
    out = tmp_path / "res.json"
    r = run_cli("export", "--type", "A2~2", "--pi1", "1", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, RESULT_SCHEMA)
    assert all(c["passed"] for c in doc["checks"])
    env_out = tmp_path / "env.json"
    r = run_cli("export", "--type", "A2~2", "--pi1", "1",
                env_extra={"BORELAB_OUT": str(env_out)})
    assert r.returncode == 0
    assert env_out.read_text() == out.read_text()


def test_export_sweep_naming(tmp_path):
    r = run_cli("export", "--type", "A5~1", "--all", "--out", str(tmp_path))
    assert r.returncode == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "A5~1__pi1-0-1.json",
        "A5~1__pi1-0-2.json",
        "A5~1__pi1-0-3.json",
        "A5~1__pi1-0__adjoint.json",
    ]
    for p in tmp_path.iterdir():
        jsonschema.validate(json.loads(p.read_text()), RESULT_SCHEMA)


def test_export_all_single_grading_writes_into_directory(tmp_path):
    # A2~2 has one grading; --all still makes --out a directory
    r = run_cli("export", "--type", "A2~2", "--all", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["A2~2__pi1-1.json"]
    assert r.stdout.strip() == str(tmp_path / "A2~2__pi1-1.json")


def test_negative_max_length_rejected():
    r = run_cli("enumerate", "--type", "D5~2", "--pi1", "1", "--max-length", "-1")
    assert r.returncode == 2
    assert "--max-length: must be at least 0, not -1" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("text", ["1_0", "+3", "\uff13", "abc", "1.5", ""])
def test_max_length_reads_ascii_digits_only(text):
    # `int` reads '1_0' as 10, '+3' and a fullwidth digit; the message names
    # the text, not the parsing function
    r = run_cli("enumerate", "--type", "E8~1", "--pi1", "1", "--max-length", text)
    assert r.returncode == 2
    assert f"--max-length: {text!r} is not a non-negative integer" in r.stderr
    assert r.stdout == ""


def test_max_length_strips_spaces():
    r = run_cli("enumerate", "--type", "D5~2", "--pi1", "1", "--max-length", " 2 ")
    assert r.returncode == 0
    assert "elements: 4   covers: 3   (truncated)" in r.stdout


def test_out_of_range_node_rejected():
    r = run_cli("verify", "--type", "A2~1", "--pi1", "99", "--adjoint")
    assert r.returncode == 2
    assert "A2~1 has nodes 0..2; no node 99" in r.stderr
    assert "flag weight" not in r.stderr


def test_weight_two_on_twisted_names_the_diagram():
    # no --adjoint: the refusal names the twisted diagram, not adjoint
    r = run_cli("verify", "--type", "D5~2", "--pi1", "0,4")
    assert r.returncode == 2
    assert "flag weight 2 requires an untwisted diagram; D5~2 is twisted" in r.stderr
    assert "adjoint" not in r.stderr


def test_export_all_requires_out():
    assert run_cli("export", "--type", "A5~1", "--all").returncode == 2


def test_export_dot(tmp_path):
    out = tmp_path / "g.dot"
    r = run_cli("export", "--type", "B2~1", "--pi1", "0,1",
                "--format", "dot", "--out", str(out))
    assert r.returncode == 0
    assert out.read_text().startswith("digraph poset {")


def test_c10_dot_bytes_pinned():
    # the one output that spells every element's word, each label its
    # parent's plus one letter: sha256 recorded when each element still
    # stored its word
    r = run_cli("export", "--type", "C10~1", "--pi1", "0,10", "--format", "dot")
    assert r.returncode == 0
    assert r.stdout.count(" [label=") == 6144
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
        "2bca40305966f25878dc08bbea162aa905a16a567a4a4cb5db2905a9032f9ca3")


def test_export_reproducible(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        r = run_cli("export", "--type", "E6~1", "--pi1", "6", "--out", str(out))
        assert r.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "nodes,message",
    [("1,1", "node 1 is given twice"),
     ("1,01", "node 1 is given twice"),
     (",1", "item 1 of ',1' is empty"),
     ("0,,1", "item 2 of '0,,1' is empty"),
     ("0,1,", "item 3 of '0,1,' is empty"),
     ("", "no node number given"),
     ("0,1_0", "'1_0' is not a node number"),
     ("+1", "'+1' is not a node number"),
     ("0,-1", "'-1' is not a node number"),
     ("\uff11", "'\uff11' is not a node number")],
)
def test_pi1_bad_node_list(nodes, message):
    r = run_cli("enumerate", "--type", "A2~1", "--pi1", nodes)
    assert r.returncode == 2
    assert f"argument --pi1: {message}" in r.stderr
    assert r.stdout == ""


def test_pi1_not_a_number():
    r = run_cli("enumerate", "--type", "A2~1", "--pi1", "0,a", "--adjoint")
    assert r.returncode == 2
    assert "argument --pi1: 'a' is not a node number" in r.stderr
    assert r.stdout == ""


def test_truncated_verify_fails_on_completeness():
    r = run_cli("verify", "--type", "D5~2", "--pi1", "1", "--max-length", "2")
    assert r.returncode == 1
    checks = [l for l in r.stdout.splitlines() if l.startswith("  [")]
    assert checks == [
        "  [FAIL] complete: enumeration truncated at length 2 after 4 elements;"
        " longer elements exist"
    ]


def test_truncated_enumerate_text_gives_no_maxima():
    # the frontier (two elements of length 2) is not the maxima (three, of
    # dimensions 3, 7 and 7): the text says the count is unknown, exit 0
    r = run_cli("enumerate", "--type", "D5~2", "--pi1", "1", "--max-length", "2")
    assert r.returncode == 0
    assert r.stdout.splitlines()[1:3] == [
        "  elements: 4   covers: 3   (truncated)",
        "  maxima:   unknown (enumeration truncated)",
    ]
    assert "dimensions" not in r.stdout
    assert r.stderr == ""


@pytest.mark.parametrize("label,nodes,digest", [
    ("C10~1", "0,10", "5d4a412f3baccc6c3d704946c7f85b6f070ba8f88023b393e9dff93d54efbc36"),
    ("D10~1", "0,9", "3e6fc7dcdb9f4a129af8c341f2c37a6618dade1c271b915e0eacf0d8383d31e2"),
])
def test_large_verify_output_pinned(label, nodes, digest):
    # the largest posets verified (6144 and 1792 elements), in a fresh run;
    # sha256 recorded when the structural check first read every element,
    # each one step from its parent; the other lines are as recorded while
    # the coset check still reflected every subgroup simple at each ascent
    # and compared every two translates
    r = run_cli("verify", "--type", label, "--pi1", nodes)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("args", [
    ["verify", "--type", "E6~1", "--all"],
    ["catalog", "--type", "A6~1", "--no-dedupe"],
])
def test_closed_pipe_exits_quietly(args):
    # the read end is closed before the child starts, so its first write to
    # stdout fails for certain: exit 1 and nothing on stderr, no traceback
    read, write = os.pipe()
    os.close(read)
    try:
        r = subprocess.run([sys.executable, "-m", "borelab", *args], stdout=write,
                           stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (r.returncode, r.stderr) == (1, "")


@pytest.mark.parametrize("command", [
    ["maxima"], ["export", "--format", "json"], ["export", "--format", "dot"],
    ["enumerate", "--format", "json"],
])
def test_truncated_poset_refused(command):
    r = run_cli(*command, "--type", "D5~2", "--pi1", "1", "--max-length", "2")
    assert r.returncode == 2
    assert "error: enumeration truncated at length 2" in r.stderr
    assert r.stdout == ""


_COLD_EXPORT = """
import contextlib, io, sys
import borelab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = borelab.cli.main(["export", "--type", "E7~1", "--pi1", "0", "--adjoint"])
print(code, *(m for m in ("dataclasses", "fractions", "decimal") if m in sys.modules))
"""


def test_cold_export_imports_no_dataclasses_or_fractions():
    # every CLI run is a fresh interpreter, so what borelab imports is paid
    # on each run: neither the CLI nor a verified export may load these
    r = subprocess.run([sys.executable, "-c", _COLD_EXPORT], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "0\n"


def test_optimized_interpreter_gives_same_output():
    # python -O strips asserts; no guard on the enumeration path, nor on the
    # element products and coset representatives that verify builds, may be one
    for args in (
        ["enumerate", "--type", "C10~1", "--pi1", "0,10", "--format", "json"],
        ["verify", "--type", "E6~1", "--all"],
        ["verify", "--type", "E8~1", "--pi1", "1"],
    ):
        runs = [subprocess.run([sys.executable, *flags, "-m", "borelab", *args],
                               capture_output=True)
                for flags in ([], ["-O"])]
        assert all(r.returncode == 0 for r in runs), args
        assert runs[0].stdout == runs[1].stdout, args


def test_optimized_smoke_script():
    # the checks CI runs under python -O, run the same way here: the script
    # holds no assert, so a guarantee resting on one in the library fails
    script = Path(__file__).with_name("optimized_smoke.py")
    tree = ast.parse(script.read_text())
    assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))
    r = subprocess.run([sys.executable, "-O", str(script)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == ""


def test_library_has_no_assert():
    # python -O strips asserts, so no guarantee of the library may rest on one
    src = Path(__file__).resolve().parent.parent / "src" / "borelab"
    modules = sorted(src.glob("*.py"))
    assert len(modules) == 9
    for module in modules:
        tree = ast.parse(module.read_text(), str(module))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, (module.name, found)


@pytest.mark.parametrize("case", ["existing_dir", "missing_parent", "all_into_file"])
def test_unwritable_out_is_a_usage_error(tmp_path, case):
    # exit 1 means a failed verification; a path that cannot be written is 2
    if case == "existing_dir":
        path, extra, reason = tmp_path, ["--pi1", "0,1"], "Is a directory"
    elif case == "missing_parent":
        path = tmp_path / "missing" / "dir" / "x.json"
        extra, reason = ["--pi1", "0,1"], "No such file or directory"
    else:
        path = tmp_path / "taken"
        path.write_text("")
        extra, reason = ["--all"], "File exists"
    r = run_cli("export", "--type", "A2~1", *extra, "--out", str(path))
    assert r.returncode == 2
    assert r.stderr == f"error: cannot write {path}: {reason}\n"
    assert r.stdout == ""


def test_enumerate_unwritable_out_is_a_usage_error(tmp_path):
    r = run_cli("enumerate", "--type", "A2~1", "--pi1", "0,1", "--out", str(tmp_path))
    assert r.returncode == 2
    assert r.stderr == f"error: cannot write {tmp_path}: Is a directory\n"


def test_pi1_with_all_refused():
    r = run_cli("enumerate", "--type", "A2~1", "--all", "--pi1", "9")
    assert r.returncode == 2
    assert "argument --pi1: not allowed with argument --all" in r.stderr
    assert r.stdout == ""
    assert run_cli("enumerate", "--type", "A2~1", "--all", "--adjoint").returncode == 0
