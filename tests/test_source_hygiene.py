"""Static checks over src/ccclique: every parameter is read, every Config
field is read by some code other than its own range check, the run's
config and log reach code only through its `sim`, and every def is reached
from src/ccclique or the benchmark."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import ccclique
from ccclique.config import Config

SRC = Path(__file__).resolve().parents[1] / "src" / "ccclique"
PERFBENCH = SRC.parents[1] / "perfbench"

# defs that neither src/ccclique nor perfbench names, each kept for a reason
UNREFERENCED_OK = {
    "Palettes.from_lists": "public constructor of explicit list palettes",
    "graph_from_text": "public constructor of a graph from edge-list text",
    "Graph.validate": "the adjacency invariant check that "
                      "test_validate_rejects_bad_adjacency pins",
}


def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def test_every_parameter_is_read():
    """A named parameter of a def or lambda is read in its body (`self`,
    `cls` and names starting with `_` are exempt, as are *args and
    **kwargs)."""
    unread = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.arg in ("self", "cls") or arg.arg.startswith("_"):
                    continue
                if arg.arg not in read:
                    unread.append(f"{name}:{node.lineno} "
                                  f"{getattr(node, 'name', 'lambda')}"
                                  f"({arg.arg})")
    assert not unread, unread


def test_every_config_field_is_read():
    """Each Config field is read as `.name` outside Config.__post_init__,
    so a knob no code reads cannot stay settable."""
    read = set()
    for tree in _trees().values():
        skip = {id(n) for f in ast.walk(tree)
                if isinstance(f, ast.FunctionDef)
                and f.name == "__post_init__" for n in ast.walk(f)}
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.ctx, ast.Load) and id(n) not in skip}
    unread = [f.name for f in fields(Config) if f.name not in read]
    assert not unread, unread


def test_no_second_channel_beside_sim():
    """The run's config and log reach code only through `sim`: no def
    takes a parameter named `cfg`, `log` or `config`, or one annotated
    `Config` or `RunLog`, whether or not it also takes `sim`.  Only the
    two defs that make the run object are exempt: harness.run_algorithm,
    which is handed the Config, and Simulator.__init__."""
    exempt = {("harness.py", "run_algorithm"), ("sim.py", "__init__")}
    doubled = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or (name, node.name) in exempt:
                continue
            a = node.args
            for p in a.posonlyargs + a.args + a.kwonlyargs:
                hint = {n.id for n in ast.walk(p.annotation or ast.Pass())
                        if isinstance(n, ast.Name)}
                if p.arg in ("cfg", "log", "config") \
                        or hint & {"Config", "RunLog"}:
                    doubled.append(f"{name}:{node.lineno} "
                                   f"{node.name}({p.arg})")
    assert not doubled, doubled


def _defs(tree, prefix=""):
    """(qualified name, node) of every def and class at module level or
    in a class body."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _defs(node, f"{prefix}{node.name}.")


def _is_click_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def test_src_holds_only_reached_code():
    """Every def and class in src/ccclique is named by an AST Name or
    Attribute somewhere in src/ccclique or perfbench/*.py, or is in
    `ccclique.__all__`, or is on UNREFERENCED_OK with its reason.  The
    benchmark's tracer names its targets by dotted strings
    ("Graph.neighbors"), so each part of such a string in perfbench counts
    as a name too.  Dunders and click commands are exempt; code only tests
    call belongs in tests/."""
    refs = set()
    for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Name):
                refs.add(n.id)
            elif isinstance(n, ast.Attribute):
                refs.add(n.attr)
            elif path.parent == PERFBENCH and isinstance(n, ast.Constant) \
                    and isinstance(n.value, str) \
                    and re.fullmatch(r"[\w.]+", n.value):
                refs.update(n.value.split("."))
    unreached, allowed = [], set()
    for name, tree in _trees().items():
        for qual, node in _defs(tree):
            short = qual.rsplit(".", 1)[-1]
            if (short.startswith("__") and short.endswith("__")) \
                    or _is_click_command(node) or short in refs \
                    or qual in ccclique.__all__:
                continue
            if qual in UNREFERENCED_OK:
                allowed.add(qual)
            else:
                unreached.append(f"{name}:{node.lineno} {qual}")
    assert not unreached, unreached
    # an entry whose def is gone or now reached leaves the list
    assert allowed == set(UNREFERENCED_OK), set(UNREFERENCED_OK) - allowed
