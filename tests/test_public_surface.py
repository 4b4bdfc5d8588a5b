"""Everything the package defines (outside the command line module) must be
used by the package itself: a definition the tests alone call checks nothing
that the verifier reports.

- A top-level function or class needs a bare-name use (`name`), so a method
  of the same name does not hide a module-level wrapper.  In the command
  line module, whose public functions are commands, this holds for the
  private (single underscore) helpers.
- A method, public or private, needs an attribute use (`x.name`).  Dunder
  methods are left out: Python calls them by protocol.
- A use inside a definition of the same name (recursion, or a method calling
  its namesake on another object) does not count, nor do the re-exports of
  an `__init__.py`.

The oracles, readers and overrides below are the exceptions.  An oracle
gives the tests a second route to a number the package computes another
way; a reader is a read-only accessor the tests state their expectations
through; an override replaces a method of a framework base class, which the
framework calls.

Every module also reads every name it imports, the package root imports no
submodule, `gltheory` loads no other module of the package, and no module
reads the environment."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dihedralinv"

ORACLES = {"weyl_dim", "cauchy_dim", "polarize", "gl_act_xy"}

READERS = {
    # one coefficient of a polynomial, without reaching into its terms
    "Polynomial.coefficient",
    # the multiplicity of one Schur module in a decomposition table
    "DecompositionReport.multiplicity",
    # the variable names of a universe, in index order
    "VariableUniverse.names",
    # the dimension of a decomposition; the gl-tables benchmark reads it
    "DecompositionReport.total_dim",
}

OVERRIDES = {
    # click runs every subcommand inside the root group's invoke, which
    # reports resource-cap overruns and exhausted memory
    "_ErrorBoundary.invoke": "click.Group",
}

DEFS = (ast.FunctionDef, ast.ClassDef)


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path, ast.parse(path.read_text())


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _definitions():
    """(label, name, kind) for every top-level def or class outside cli.py
    and every private one in it (kind "name"), and every method of those
    classes but the dunders (kind "attr")."""
    for path, tree in _modules():
        cli = path.name == "cli.py"
        module = path.relative_to(PACKAGE).with_suffix("").as_posix()
        for node in tree.body:
            if not isinstance(node, DEFS) or cli and not _private(node.name):
                continue
            yield "%s.%s" % (module.replace("/", "."), node.name), \
                node.name, "name"
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("__"):
                    yield "%s.%s" % (node.name, item.name), item.name, "attr"


def _uses():
    """{"name": names read bare, "attr": attribute names read}, over every
    module but the __init__.py re-exports.  Assigning an attribute
    (`self.x = ...`) is not a read."""
    uses = {"name": set(), "attr": set()}

    def visit(node, enclosing):
        if isinstance(node, DEFS):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            uses["name"].add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load) \
                and node.attr not in enclosing:
            uses["attr"].add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path, tree in _modules():
        if path.name != "__init__.py":
            visit(tree, frozenset())
    return uses


def _unused():
    uses = _uses()
    return [label for label, name, kind in _definitions()
            if name not in uses[kind]
            and name not in ORACLES and label not in READERS
            and label not in OVERRIDES]


def test_every_definition_is_used_by_the_package():
    unused = _unused()
    assert unused == [], "defined in the package, used only by tests " \
                         "(or by nothing): %s" % ", ".join(unused)


def test_oracles_are_not_used_by_the_package():
    # an oracle the package itself calls is no longer independent of it,
    # and no longer needs its place on the list
    assert sorted(ORACLES & _uses()["name"]) == []


def test_readers_are_methods_the_package_does_not_read():
    methods = {label: name for label, name, kind in _definitions()
               if kind == "attr"}
    assert sorted(READERS - set(methods)) == []
    read = _uses()["attr"]
    assert sorted(r for r in READERS if methods[r] in read) == []


def test_overrides_replace_a_method_their_base_defines():
    # an override names its base class, which defines the method; once the
    # package reads the method itself, the entry is not needed
    bases = {}
    for _, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        bases["%s.%s" % (node.name, item.name)] = \
                            [ast.unparse(b) for b in node.bases]
    read = _uses()["attr"]
    for label, base in OVERRIDES.items():
        assert base in bases[label], label
        module, cls = base.rsplit(".", 1)
        method = label.rsplit(".", 1)[1]
        assert callable(getattr(getattr(importlib.import_module(module), cls),
                                method, None)), label
        assert method not in read, label


def test_every_import_is_read():
    unread = []
    for path, tree in _modules():
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in read:
                        unread.append("%s: %s"
                                      % (path.relative_to(PACKAGE), bound))
    assert unread == [], "imported and never read: %s" % ", ".join(unread)


def _loaded_after(statement):
    """The sorted names in sys.modules after `statement`, run in a fresh
    interpreter on the package's source tree."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "%s\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))" \
        % statement
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_package_root_imports_no_submodule():
    loaded = _loaded_after("import dihedralinv")
    assert [name for name in loaded if name.startswith("dihedralinv.")] == []


def test_gltheory_loads_no_other_package_module_and_no_fractions():
    # a GL-table session pays only for the module it calls
    loaded = _loaded_after("import dihedralinv.gltheory")
    assert [name for name in loaded if name.startswith("dihedralinv.")] \
        == ["dihedralinv.gltheory"]
    assert "fractions" not in loaded


def test_no_module_reads_the_environment():
    # a library result is a function of its arguments, and a CLI limit has
    # one source, its option
    reads = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "os" \
                    and node.attr in ("environ", "getenv"):
                reads.append("%s:%d: os.%s"
                             % (path.relative_to(PACKAGE), node.lineno,
                                node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                    and {"environ", "getenv"} & {a.name for a in node.names}:
                reads.append("%s:%d: from os import"
                             % (path.relative_to(PACKAGE), node.lineno))
    assert reads == [], "environment read in the package: %s" \
        % ", ".join(reads)
