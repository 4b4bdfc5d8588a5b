"""Spans around the package's public calls, recorded from outside it.

`Tracer.install` wraps each function in TARGETS and rebinds the wrapper in
every namespace that holds the original: functions imported by value
(`from .linalg import nullspace_combinations`) are looked up in the
importing module, so patching only the defining module would leave those
calls untraced without any error.  After patching it scans every loaded
module and every class of the package and fails if an original is still
bound anywhere.

Spans are kept in memory as [name, start, end, parent, attrs] lists and
turned into per-layer metrics by `layer_metrics`.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(args, kwargs, result):
    return len(result)


def _gain(args, kwargs, result):
    return 1 if result else 0


def _enumerate(args, kwargs, result):
    algebra = args[0]
    alpha = tuple(_arg(args, kwargs, 1, "alpha"))
    return (algebra.n, algebra.m, alpha), len(result)


def _nullspace(args, kwargs, result):
    polys = _arg(args, kwargs, 0, "polys")
    columns = _arg(args, kwargs, 1, "columns")
    return len(polys), len(columns), len(result)


# (span name, module, class or None, attribute, attrs(args, kwargs, result))
TARGETS = [
    ("freealgebra.enumerate", "dihedralinv.freealgebra", "FreeAlgebra",
     "monomials_of_weight", _enumerate),
    ("freealgebra.phi", "dihedralinv.freealgebra", "FreeAlgebra",
     "phi_monomial", None),
    ("freealgebra.transport", "dihedralinv.freealgebra", "FreeAlgebra",
     "s_act", lambda a, k, r: len(r.poly.terms)),
    ("freealgebra.gl_act", "dihedralinv.freealgebra", "FreeAlgebra",
     "gl_act", None),
    ("freealgebra.saturation", "dihedralinv.freealgebra", None,
     "submodule_basis", _size),
    ("linalg.nullspace", "dihedralinv.exactpoly.linalg", None,
     "nullspace_combinations", _nullspace),
    ("linalg.eliminate", "dihedralinv.exactpoly.linalg", "RowSpace",
     "insert_row", _gain),
    ("linalg.scale_row", "dihedralinv.exactpoly.linalg", None,
     "scaled_row_from_polynomial", None),
    ("linalg.space_insert", "dihedralinv.exactpoly.linalg",
     "PolynomialSpace", "insert", _gain),
    ("rings.poly_mul", "dihedralinv.exactpoly.rings", "Polynomial",
     "__mul__", lambda a, k, r: len(r.terms)),
    ("dihedral.xy_monomials", "dihedralinv.dihedral", None,
     "xy_monomials", _size),
    ("dihedral.invariant_basis", "dihedralinv.dihedral", None,
     "invariant_basis", _size),
    ("dihedral.cyclic_basis", "dihedralinv.dihedral", None,
     "cyclic_invariant_basis", _size),
    ("kernelcalc.kernel_basis", "dihedralinv.kernelcalc", None,
     "kernel_basis_at", None),
    ("kernelcalc.mingens", "dihedralinv.kernelcalc", None,
     "minimal_generators_by_degree", None),
    ("kernelcalc.ideal_slice", "dihedralinv.kernelcalc", "TruncatedIdeal",
     "component_dimension", None),
    ("kernelcalc.spanning_polys", "dihedralinv.kernelcalc", "TruncatedIdeal",
     "spanning_polys", _size),
    ("kernelcalc.hironaka", "dihedralinv.kernelcalc", None,
     "verify_hironaka_xy", None),
    ("kernelcalc.gl_generation", "dihedralinv.kernelcalc", None,
     "gl_generation_report", None),
    ("gltheory.kostka", "dihedralinv.gltheory", None, "kostka", None),
    ("gltheory.schur_dim", "dihedralinv.gltheory", None, "schur_dim", None),
    ("gltheory.pieri", "dihedralinv.gltheory", None, "pieri_row", None),
    ("gltheory.tables", "dihedralinv.gltheory", None,
     "invariants_truncated", None),
    ("gltheory.tables", "dihedralinv.gltheory", None,
     "kernel_decomposition", None),
    ("cli.emit", "dihedralinv.cli", None, "emit", None),
]

LAYERS = ("cli", "kernelcalc", "freealgebra", "dihedral", "gltheory",
          "linalg", "rings")

# PolynomialSpace.insert spans are attributed to the nearest of these
# ancestors.
INSERT_BUCKETS = {
    "kernelcalc.mingens": "nakayama",
    "kernelcalc.ideal_slice": "ideal",
    "kernelcalc.hironaka": "hironaka",
    "freealgebra.saturation": "saturation",
}

# spans that bracket a sub-pipeline; reported as total time, counting only
# spans with no ancestor of the same name
TOTAL_NAMES = ("freealgebra.saturation", "kernelcalc.kernel_basis",
               "kernelcalc.mingens", "kernelcalc.ideal_slice",
               "kernelcalc.hironaka", "kernelcalc.gl_generation",
               "gltheory.schur_dim", "gltheory.tables", "cli.command")
TOTAL_KERNELCALC = tuple(name for name in TOTAL_NAMES
                         if name.startswith("kernelcalc."))


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def wrap(self, name, fn, attrs=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target at every binding; raise if one is missed."""
        import click

        import dihedralinv.cli

        package = [mod for name, mod in list(sys.modules.items())
                   if name.split(".")[0] == "dihedralinv"]
        originals = {}
        for name, modname, clsname, attr, attrs in TARGETS:
            module = sys.modules[modname]
            if clsname is None:
                original = getattr(module, attr)
                owners = package
            else:
                original = vars(getattr(module, clsname))[attr]
                owners = [getattr(module, clsname)]
            wrapped = self.wrap(name, original, attrs)
            originals[id(original)] = name
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapped)

        def commands(group):
            for cmd in group.commands.values():
                if isinstance(cmd, click.Group):
                    yield from commands(cmd)
                else:
                    yield cmd

        for cmd in commands(dihedralinv.cli.main):
            originals[id(cmd.callback)] = "cli.command"
            cmd.callback = self.wrap("cli.command", cmd.callback)

        holders = list(sys.modules.values())
        holders += [value for mod in package for value in vars(mod).values()
                    if isinstance(value, type)]
        for holder in holders:
            for key, value in list(getattr(holder, "__dict__", {}).items()):
                if id(value) in originals:
                    raise RuntimeError(
                        "%s.%s still binds the untraced %s"
                        % (getattr(holder, "__name__", holder), key,
                           originals[id(value)]))

    def run(self, fn, *args):
        """Call fn under a root span named "op"; return its result."""
        return self.wrap("op", fn)(*args)


def _nearest(spans, index, names):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return parent
        parent = spans[parent][3]
    return -1


def layer_metrics(spans):
    """Per-layer metrics of one traced operation whose root span is 0."""
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    own = [s[2] - s[1] - child[i] for i, s in enumerate(spans)]
    wall = spans[0][2] - spans[0][1]

    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    size = defaultdict(int)
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] += 1
        self_s[name] += own[i]
        if name in TOTAL_NAMES and _nearest(spans, i, (name,)) < 0:
            total_s[name] += s[2] - s[1]
        if isinstance(s[4], int):
            size[name] += s[4]

    out = {}

    def put(prefix, *stats):
        for stat in stats:
            value = {"self_s": self_s, "calls": calls,
                     "total_s": total_s}[stat][prefix]
            out["%s.%s" % (prefix, stat)] = value

    keys = [s[4][0] for s in spans if s[0] == "freealgebra.enumerate"]
    put("freealgebra.enumerate", "self_s", "calls")
    out["freealgebra.enumerate.monomials"] = sum(
        s[4][1] for s in spans if s[0] == "freealgebra.enumerate")
    out["freealgebra.enumerate.repeat_ratio"] = (
        len(keys) / len(set(keys)) if keys else 0.0)

    # a phi miss recurses once, so misses are phi spans with a phi parent
    misses = sum(1 for s in spans if s[0] == "freealgebra.phi"
                 and s[3] >= 0 and spans[s[3]][0] == "freealgebra.phi")
    put("freealgebra.phi", "self_s", "calls")
    out["freealgebra.phi.hit_ratio"] = (
        1 - misses / calls["freealgebra.phi"]
        if calls["freealgebra.phi"] else 0.0)

    put("freealgebra.transport", "self_s", "calls")
    out["freealgebra.transport.terms"] = size["freealgebra.transport"]
    put("freealgebra.saturation", "total_s", "calls")
    out["freealgebra.saturation.basis"] = size["freealgebra.saturation"]
    put("freealgebra.gl_act", "self_s", "calls")

    shapes = [s[4] for s in spans if s[0] == "linalg.nullspace"]
    put("linalg.nullspace", "self_s", "calls")
    out["linalg.nullspace.rows"] = sum(r for r, _, _ in shapes)
    out["linalg.nullspace.cols"] = sum(c for _, c, _ in shapes)
    out["linalg.nullspace.relations"] = sum(k for _, _, k in shapes)
    rows, cols, rels = max(shapes, key=lambda t: (t[0] * t[1], t),
                           default=(0, 0, 0))
    out["linalg.nullspace.max_cells"] = rows * cols
    out["linalg.nullspace.largest_rows"] = rows
    out["linalg.nullspace.largest_cols"] = cols
    out["linalg.nullspace.largest_relations"] = rels
    # every row that does not raise the rank yields one relation
    out["linalg.nullspace.largest_rank"] = rows - rels

    put("linalg.eliminate", "self_s", "calls")
    out["linalg.eliminate.rank_gain_ratio"] = (
        size["linalg.eliminate"] / calls["linalg.eliminate"]
        if calls["linalg.eliminate"] else 0.0)
    put("linalg.scale_row", "self_s")

    bucket = {b: [0, 0.0, 0.0, 0] for b in INSERT_BUCKETS.values()}
    for i, s in enumerate(spans):
        if s[0] != "linalg.space_insert":
            continue
        anc = _nearest(spans, i, INSERT_BUCKETS)
        if anc < 0:
            continue
        acc = bucket[INSERT_BUCKETS[spans[anc][0]]]
        acc[0] += 1
        acc[1] += own[i]
        acc[2] += s[2] - s[1]
        acc[3] += s[4]
    for b, (count, own_s, tot_s, gains) in bucket.items():
        prefix = "linalg.space_insert.%s." % b
        out[prefix + "calls"] = count
        out[prefix + "self_s"] = own_s
        out[prefix + "total_s"] = tot_s
        out[prefix + "rank_gain_ratio"] = gains / count if count else 0.0

    put("rings.poly_mul", "self_s", "calls")
    out["rings.poly_mul.terms_out"] = size["rings.poly_mul"]

    for what in ("xy_monomials", "invariant_basis", "cyclic_basis"):
        put("dihedral." + what, "self_s", "calls")
        out["dihedral.%s.size" % what] = size["dihedral." + what]

    # a kernel_basis call misses the cache iff it reaches a nullspace call
    missed = {_nearest(spans, i, ("kernelcalc.kernel_basis",))
              for i, s in enumerate(spans) if s[0] == "linalg.nullspace"}
    missed.discard(-1)
    put("kernelcalc.kernel_basis", "total_s", "calls")
    kb = calls["kernelcalc.kernel_basis"]
    out["kernelcalc.kernel_basis.cache_hit_ratio"] = (
        1 - len(missed) / kb if kb else 0.0)
    put("kernelcalc.mingens", "total_s")
    put("kernelcalc.ideal_slice", "total_s", "calls")
    put("kernelcalc.spanning_polys", "self_s")
    out["kernelcalc.spanning_polys.rows"] = size["kernelcalc.spanning_polys"]
    put("kernelcalc.hironaka", "total_s")
    put("kernelcalc.gl_generation", "total_s")
    bracketed = sum(
        s[2] - s[1] for i, s in enumerate(spans)
        if s[0].startswith("kernelcalc.")
        and _nearest(spans, i, TOTAL_KERNELCALC) < 0)
    out["kernelcalc.bracket_share"] = bracketed / wall

    put("gltheory.kostka", "self_s", "calls")
    put("gltheory.schur_dim", "total_s", "calls")
    put("gltheory.pieri", "self_s", "calls")
    put("gltheory.tables", "total_s")
    put("cli.command", "total_s")
    put("cli.emit", "self_s")

    for layer in LAYERS:
        out["layer.%s.self_share" % layer] = sum(
            own[i] for i, s in enumerate(spans)
            if s[0].split(".")[0] == layer) / wall
    out["trace.command_s"] = wall
    out["trace.spans"] = n
    return out
