"""Every top-level function and class of the package (outside the command
line module) must be used by the package itself: one the tests alone call
checks nothing that the verifier reports.  The oracles below are the
exception; they exist to give the tests a second route to a number the
package computes another way."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dihedralinv"

ORACLES = {"weyl_dim", "cauchy_dim", "polarize", "gl_act_xy"}


def _definitions():
    """(module path, node) for every top-level def or class outside cli.py."""
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node


def _uses():
    """name -> set of (module path, line) where the package reads it.  A
    package's re-exports in __init__.py and a definition's own body do not
    count as uses."""
    uses = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name == "__init__.py":
            continue
        for top in tree.body:
            skip = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != skip:
                    uses.setdefault(name, set()).add((path, node.lineno))
    return uses


def test_every_definition_is_used_by_the_package():
    uses = _uses()
    unused = ["%s: %s" % (path.relative_to(PACKAGE), node.name)
              for path, node in _definitions()
              if node.name not in uses and node.name not in ORACLES]
    assert unused == [], "defined in the package, used only by tests " \
                         "(or by nothing): %s" % ", ".join(unused)


def test_oracles_are_not_used_by_the_package():
    # an oracle the package itself calls is no longer independent of it,
    # and no longer needs its place on the list
    uses = _uses()
    assert sorted(ORACLES & set(uses)) == []
