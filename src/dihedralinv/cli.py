"""Command-line front end.

Every subcommand assembles one report: a few tables plus a list of
pass/fail verdicts carrying the witness dimensions that were compared.
Text output keeps the tables in multidegree-row layout; `--format json`
emits the same data as a schema-versioned document with sorted keys, so
the bytes are stable across runs.

Exit status: 0 when everything verified, 1 when some verdict failed,
2 for usage errors and resource-cap overruns.
"""

from __future__ import annotations

import json
import sys

from .dihedral import DihedralParams, all_multidegrees
from .exactpoly import (
    STAIRCASE_CAP,
    MonomialOrder,
    buchberger,
    leading_term,
    monomial_text,
    parse_polynomial,
    staircase_generating_function,
    staircase_monomials,
    xy_universe,
)
from .freealgebra import (
    is_highest_weight,
    make_R222,
    make_R_2n2k,
    make_R_n2,
    phi,
)
from .gltheory import (
    ambient_truncated,
    hilbert_h,
    invariants_truncated,
    kernel_decomposition,
)
from .kernelcalc import (
    DEFAULT_RESOURCE_CAP,
    ResourceCapError,
    check_cap,
    cyclic_table_n4_m3,
    gl_generation_report,
    kernel_basis_at,
    kernel_dimensions,
    minimal_generators_by_degree,
    secondary_table_m2,
    secondary_table_n4_m3,
    verify_hironaka_xy,
)

# imported after the package's modules: a cold process that compiles them
# from source then peaks about 0.6 MB lower (ru_maxrss)
import click

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# plumbing


def degree_option(name, **kwargs):
    return click.option(name, type=click.IntRange(min=0), **kwargs)


n_option = click.option("--n", "n", type=click.IntRange(min=3), required=True,
                        help="order parameter of the rotation")
m_option = click.option("--m", "m", type=click.IntRange(min=1), default=2,
                        show_default=True, help="number of vector variables")
format_option = click.option("--format", "fmt",
                             type=click.Choice(["text", "json"]),
                             default="text", show_default=True,
                             help="output format")
cap_option = click.option("--resource-cap", type=click.IntRange(min=1),
                          default=DEFAULT_RESOURCE_CAP, show_default=True,
                          help="largest component basis size to attempt")
force_option = click.option("--force", is_flag=True,
                            help="allow degree caps beyond the proven "
                                 "bound 2n+2")


def _resolve_degree(n, max_degree, force):
    """Default truncation is the proven generation bound 2n+2."""
    bound = 2 * n + 2
    if max_degree is None:
        return bound
    if max_degree > bound and not force:
        raise click.UsageError(
            "--max-degree %d exceeds the proven bound %d for n=%d; "
            "pass --force to explore beyond it" % (max_degree, bound, n))
    return max_degree


def _ambient_degree(n, max_degree):
    """The ambient assembly holds through 2n+2 only, also the default."""
    bound = 2 * n + 2
    if max_degree is not None and max_degree > bound:
        raise click.UsageError(
            "the ambient assembly is only valid through degree 2n+2 = %d"
            % bound)
    return bound if max_degree is None else max_degree


def emit(command, params, tables, verdicts, fmt, text_lines):
    """Print one report and exit 1 if any verdict failed."""
    if fmt == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "command": command,
            "params": params,
            "tables": tables,
            "verdicts": verdicts,
        }
        click.echo(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            click.echo(line)
    if any(v["status"] != "ok" for v in verdicts):
        sys.exit(1)


def _verdict(claim, ok, witness):
    """One pass/fail verdict with the witness dimensions it compared."""
    return {"claim": claim, "status": "ok" if ok else "fail",
            "witness_dims": witness}


# ---------------------------------------------------------------------------
# named relations


def named_relations(n, m):
    """The built-in relation list: the 3x3 symmetric determinant (when three
    slots exist), the mixed degree-(n,2) relation, and the power-sum family,
    with their expected highest weights."""
    def pad(w):
        return tuple(w) + (0,) * (m - len(w))

    rels = []
    if m >= 3:
        rels.append(("R_{2,2,2}", make_R222(n, m), pad((2, 2, 2))))
    if m >= 2:
        rels.append(("R(%d)_{%d,2}" % (n, n), make_R_n2(n, m), pad((n, 2))))
        for k in range(1, n // 2 + 1):
            rels.append(("R(%d)_{%d,%d}" % (n, 2 * n - 2 * k, 2 * k),
                         make_R_2n2k(n, k, m),
                         pad((2 * n - 2 * k, 2 * k))))
    return rels


class _ErrorBoundary(click.Group):
    """The root group.  Every subcommand runs inside its `invoke`, where a
    resource-cap overrun or running out of memory is reported on one line
    as a usage-level failure."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ResourceCapError as exc:
            click.echo("resource cap exceeded: %s" % exc, err=True)
            sys.exit(2)
        except MemoryError:
            click.echo("out of memory: the query needs more memory than "
                       "this process can get", err=True)
            sys.exit(2)


@click.group(cls=_ErrorBoundary)
def main():
    """Exact computations in the invariant theory of regular polygons:
    relations between polarized invariants, kernel components of the
    presentation, module decompositions, and free-module checks."""


@main.group()
def relations():
    """Verify the built-in relation families."""


@relations.command("verify")
@n_option
@m_option
@format_option
def relations_verify(n, m, fmt):
    """Check that each named relation maps to zero and is a highest
    weight vector of the expected weight."""
    if m < 2:
        raise click.UsageError("relations need at least two vector variables")
    verdicts = []
    statuses = []
    for name, g, weight in named_relations(n, m):
        image = phi(g)
        hw = is_highest_weight(g)
        ok = image.is_zero() and hw == weight
        statuses.append((name, ok))
        verdicts.append(_verdict("phi(%s) = 0" % name, image.is_zero(),
                                 [len(image.terms)]))
        verdicts.append(_verdict(
            "%s is a highest weight vector of weight %s"
            % (name, list(weight)), hw == weight, list(hw) if hw else []))
    line = ", ".join("%s: %s" % (name, "OK" if ok else "FAIL")
                     for name, ok in statuses)
    emit("relations verify", {"n": n, "m": m}, [], verdicts, fmt, [line])


# ---------------------------------------------------------------------------
# kernel


@main.group()
def kernel():
    """Kernel of the presentation map, component by component."""


@kernel.command("dim")
@n_option
@m_option
@degree_option("--max-degree", default=None,
               help="largest total degree to report [default: 2n+2]")
@format_option
@cap_option
@force_option
def kernel_dim(n, m, max_degree, fmt, resource_cap, force):
    """Kernel dimension in every total degree up to the cap."""
    D = _resolve_degree(n, max_degree, force)
    dims = kernel_dimensions(n, m, D, resource_cap=resource_cap)
    rows = [{"degree": d, "dimension": dim} for d, dim in enumerate(dims)]
    lines = ["degree %d: %d" % (d, dim) for d, dim in enumerate(dims)]
    emit("kernel dim",
         {"n": n, "m": m, "max_degree": D,
          "resource_cap": resource_cap},
         [{"name": "kernel_dimensions", "rows": rows}], [], fmt, lines)


@kernel.command("basis")
@n_option
@m_option
@degree_option("--degree", required=True,
               help="total degree of the component")
@format_option
@cap_option
@force_option
def kernel_basis(n, m, degree, fmt, resource_cap, force):
    """Explicit kernel basis in one total degree, multidegree by
    multidegree."""
    _resolve_degree(n, degree, force)
    rows = []
    lines = []
    for alpha in all_multidegrees(m, degree):
        basis = kernel_basis_at(n, m, alpha, resource_cap=resource_cap)
        if not basis:
            continue
        rows.append({"multidegree": list(alpha),
                     "elements": [str(e) for e in basis]})
        lines.append("multidegree %s:" % (alpha,))
        lines.extend("  %s" % e for e in basis)
    if not lines:
        lines = ["(empty component)"]
    emit("kernel basis",
         {"n": n, "m": m, "degree": degree,
          "resource_cap": resource_cap},
         [{"name": "kernel_basis", "rows": rows}], [], fmt, lines)


@kernel.command("mingens")
@n_option
@m_option
@degree_option("--max-degree", default=None,
               help="largest total degree to scan [default: 2n+2]")
@format_option
@cap_option
@force_option
def kernel_mingens(n, m, max_degree, fmt, resource_cap, force):
    """Count minimal generators of the kernel ideal by degree (graded
    Nakayama)."""
    D = _resolve_degree(n, max_degree, force)
    counts = minimal_generators_by_degree(n, m, D,
                                          resource_cap=resource_cap)
    total = sum(counts.values())
    rows = [{"degree": d, "count": c} for d, c in sorted(counts.items())]
    parts = ["degree %d: %d" % (d, c) for d, c in sorted(counts.items())]
    parts.append("total %d" % total)
    emit("kernel mingens",
         {"n": n, "m": m, "max_degree": D,
          "resource_cap": resource_cap},
         [{"name": "minimal_generators", "rows": rows},
          {"name": "total", "rows": [{"count": total}]}],
         [], fmt, [", ".join(parts)])


# ---------------------------------------------------------------------------
# decompositions


def _decomposition_tables(table, name):
    rows = []
    lines = []
    for t in sorted(table):
        report = table[t]
        for row in report.to_rows():
            rows.append({"degree": t, "partition": row["partition"],
                         "multiplicity": row["multiplicity"]})
        if report:
            lines.append("degree %d: %s" % (t, report))
    if not lines:
        lines = ["(no nonzero components)"]
    return [{"name": name, "rows": rows}], lines


@main.group()
def decompose():
    """Character-level module decompositions (independent of the linear
    algebra route)."""


@decompose.command("invariants")
@n_option
@m_option
@degree_option("--max-degree", default=None,
               help="largest total degree [default: 2n+2]")
@format_option
@cap_option
def decompose_invariants(n, m, max_degree, fmt, resource_cap):
    """Multiplicity of each Schur module in the invariant ring, degree by
    degree."""
    D = max_degree if max_degree is not None else 2 * n + 2
    # the table visits every partition of each t <= D with at most
    # min(2, m) parts: one at m = 1, else t//2 + 1, summed in closed form
    visits = D + 1 if m == 1 else D + 1 + (D // 2) * ((D + 1) // 2)
    check_cap(visits, resource_cap, "the invariant table through degree %d",
              D, unit="partitions")
    tables, lines = _decomposition_tables(
        invariants_truncated(n, m, D), "invariant_multiplicities")
    emit("decompose invariants", {"n": n, "m": m, "max_degree": D},
         tables, [], fmt, lines)


@decompose.command("ambient")
@n_option
@m_option
@degree_option("--max-degree", default=None,
               help="largest total degree (at most 2n+2)")
@format_option
def decompose_ambient(n, m, max_degree, fmt):
    """Decomposition of the ambient quotient (determinant relation killed)
    in low degrees."""
    D = _ambient_degree(n, max_degree)
    tables, lines = _decomposition_tables(
        ambient_truncated(n, m, D), "ambient_decomposition")
    emit("decompose ambient", {"n": n, "m": m, "max_degree": D},
         tables, [], fmt, lines)


@decompose.command("kernel")
@n_option
@m_option
@degree_option("--max-degree", default=None,
               help="largest total degree (at most 2n+2)")
@format_option
def decompose_kernel(n, m, max_degree, fmt):
    """Decomposition of the reduced kernel (ambient minus invariants)."""
    D = _ambient_degree(n, max_degree)
    tables, lines = _decomposition_tables(
        kernel_decomposition(n, m, D), "kernel_decomposition")
    emit("decompose kernel", {"n": n, "m": m, "max_degree": D},
         tables, [], fmt, lines)


# ---------------------------------------------------------------------------
# Hironaka decomposition


def _builtin_table(n, m, model):
    """(primaries, rows) of the built-in free-module table for (n, m,
    model); a usage error where there is none."""
    if model == "dihedral" and m == 2:
        return secondary_table_m2(n)
    if model == "dihedral" and (n, m) == (4, 3):
        return secondary_table_n4_m3()
    if model == "cyclic" and (n, m) == (4, 3):
        return cyclic_table_n4_m3()
    raise click.UsageError(
        "no built-in decomposition table for n=%d, m=%d, model=%s"
        % (n, m, model))


@main.group()
def hironaka():
    """Primary/secondary decompositions of the invariant ring."""


@hironaka.command("verify")
@n_option
@m_option
@degree_option("--max-degree", default=None,
               help="check components through this total degree "
                    "[default: 2n+2]")
@click.option("--model", type=click.Choice(["dihedral", "cyclic"]),
              default="dihedral", show_default=True,
              help="full reflection group or its rotation subgroup")
@format_option
@cap_option
@force_option
def hironaka_verify(n, m, max_degree, model, fmt, resource_cap, force):
    """Verify the built-in free-module table for these parameters:
    secondaries stay independent over the parameter subring and the
    multigraded Hilbert series identity holds."""
    D = _resolve_degree(n, max_degree, force)
    report = verify_hironaka_xy(*_builtin_table(n, m, model),
                                DihedralParams(n, m), D, model=model,
                                resource_cap=resource_cap)
    witness = [report.lstar_size, report.components_checked]
    verdicts = [
        _verdict("secondaries are independent over the parameter ideal",
                 report.independence, witness),
        _verdict("multigraded Hilbert series identity",
                 report.hilbert_match, witness),
        _verdict("primaries and secondaries span every component",
                 report.spanning, witness),
    ]
    lines = ["independence: %s" % ("OK" if report.independence else "FAIL"),
             "Hilbert series identity: %s"
             % ("OK" if report.hilbert_match else "FAIL"),
             "spanning: %s" % ("OK" if report.spanning else "FAIL"),
             "%d secondaries after symmetrization, %d components through "
             "degree %d" % (report.lstar_size, report.components_checked, D)]
    lines.extend("  " + f for f in report.failures[:20])
    emit("hironaka verify",
         {"n": n, "m": m, "max_degree": D, "model": model,
          "resource_cap": resource_cap},
         [], verdicts, fmt, lines)


# ---------------------------------------------------------------------------
# series and Groebner demo


@main.command("hilbert")
@n_option
@degree_option("--max-degree", default=None,
               help="expand through this degree [default: 2n]")
@format_option
@cap_option
def hilbert(n, max_degree, fmt, resource_cap):
    """Coefficients of the one-vector invariant Hilbert series
    1/((1-t^2)(1-t^n))."""
    D = max_degree if max_degree is not None else 2 * n
    check_cap(D + 1, resource_cap, "the series through degree %d", D,
              unit="coefficients")
    coeffs = [hilbert_h(n, d) for d in range(D + 1)]
    rows = [{"degree": d, "dimension": c} for d, c in enumerate(coeffs)]
    emit("hilbert", {"n": n, "max_degree": D},
         [{"name": "hilbert_series", "rows": rows}], [], fmt,
         [", ".join(str(c) for c in coeffs)])


@main.group()
def groebner():
    """Groebner basis demonstrations."""


@groebner.command("demo")
# the demo ideal's staircase has 2n monomials
@click.option("--n", "n", type=click.IntRange(3, STAIRCASE_CAP // 2),
              required=True, help="order parameter of the rotation")
@format_option
def groebner_demo(n, fmt):
    """Groebner basis of (xy, x^n + y^n) under lex with x < y, its
    staircase, and the staircase generating function."""
    U = xy_universe(1)
    gens = [parse_polynomial("x1*y1", U),
            parse_polynomial("x1^%d + y1^%d" % (n, n), U)]
    order = MonomialOrder([1, 0])
    basis = buchberger(gens, order)
    stairs = staircase_monomials(basis, order)
    genf = staircase_generating_function(stairs)
    expected = [1] + [2] * (n - 1) + [1]
    rows = [{"leading_monomial": monomial_text(leading_term(g, order)[0], U),
             "polynomial": g.text()} for g in basis]
    tables = [
        {"name": "groebner_basis", "rows": rows},
        {"name": "staircase", "rows": [
            {"monomial_count": len(stairs),
             "generating_function": genf}]},
    ]
    verdicts = [_verdict("staircase generating function equals "
                         "(1+t)(1+t+...+t^(n-1))", genf == expected, genf)]
    lines = ["basis:"]
    lines.extend("  %s" % g for g in basis)
    lines.append("initial ideal: %s"
                 % ", ".join(r["leading_monomial"] for r in rows))
    lines.append("staircase: %d monomials, generating function %s"
                 % (len(stairs), " ".join(str(c) for c in genf)))
    emit("groebner demo", {"n": n}, tables, verdicts, fmt, lines)


# ---------------------------------------------------------------------------
# one-shot reproduction


# the published n = 4 minimal generator totals: (m, vectors, total)
PAPER_MINGENS = ((2, "two", 9), (3, "three", 103))


@main.command("report")
@click.argument("what", type=click.Choice(["paper"]))
@click.option("--n", "n", type=click.IntRange(min=3), default=4,
              show_default=True)
@format_option
@cap_option
def report(what, n, fmt, resource_cap):
    """One-shot reproduction of the published square-symmetry tables
    (requires n=4): relation checks, minimal generator counts, the reduced
    kernel decomposition, free-module verifications, and the GL-generation
    comparison."""
    if n != 4:
        raise click.UsageError("the built-in report covers n=4 only")
    tables = []
    verdicts = []
    lines = []

    for name, g, weight in named_relations(4, 3):
        ok = phi(g).is_zero() and is_highest_weight(g) == weight
        verdicts.append(_verdict("%s maps to zero and has highest weight %s"
                                 % (name, list(weight)), ok, list(weight)))
        lines.append("%s: %s" % (name, "OK" if ok else "FAIL"))

    for m, word, total in PAPER_MINGENS:
        mg = minimal_generators_by_degree(4, m, 10,
                                          resource_cap=resource_cap)
        tables.append({"name": "minimal_generators_m%d" % m,
                       "rows": [{"degree": d, "count": c}
                                for d, c in sorted(mg.items())]})
        verdicts.append(_verdict("%s-vector kernel needs %d generators"
                                 % (word, total),
                                 sum(mg.values()) == total,
                                 sorted(mg.values())))
        lines.append("minimal generators, m=%d: %s (total %d)"
                     % (m, dict(sorted(mg.items())), sum(mg.values())))

    kd = kernel_decomposition(4, 3, 10)
    kd_rows = [{"degree": t, "partition": row["partition"],
                "multiplicity": row["multiplicity"]}
               for t in sorted(kd) for row in kd[t].to_rows()]
    tables.append({"name": "reduced_kernel_decomposition", "rows": kd_rows})
    for t in sorted(kd):
        if kd[t]:
            lines.append("reduced kernel, degree %d: %s" % (t, kd[t]))

    for label, m, model in [("two-vector free module", 2, "dihedral"),
                            ("three-vector free module", 3, "dihedral"),
                            ("rotation-subgroup free module", 3, "cyclic")]:
        rep = verify_hironaka_xy(*_builtin_table(4, m, model),
                                 DihedralParams(4, m), 16, model=model,
                                 resource_cap=resource_cap)
        verdicts.append(_verdict(label + " verified", rep.ok,
                                 [rep.lstar_size, rep.components_checked]))
        lines.append("%s: %s (%d secondaries)"
                     % (label, "OK" if rep.ok else "FAIL", rep.lstar_size))

    for m, _, _ in PAPER_MINGENS:
        gens = [g for _, g, _ in named_relations(4, m)]
        ok, rows = gl_generation_report(gens, 10, resource_cap=resource_cap)
        tables.append({"name": "gl_generation_m%d" % m, "rows": rows})
        verdicts.append(_verdict("named relations generate the kernel "
                                 "GL-ideal, m=%d" % m, ok,
                                 [r["kernel_dim"] for r in rows]))
        lines.append("GL-generation, m=%d: %s" % (m, "OK" if ok else "FAIL"))

    emit("report paper",
         {"n": n, "resource_cap": resource_cap},
         tables, verdicts, fmt, lines)


if __name__ == "__main__":
    main()
