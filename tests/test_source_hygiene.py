"""Static checks over src/ccclique: every parameter is read, every Config
field is read by some code other than its own range check, and the run's
config and log reach code only through its `sim`."""

import ast
from dataclasses import fields
from pathlib import Path

from ccclique.config import Config

SRC = Path(__file__).resolve().parents[1] / "src" / "ccclique"


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
