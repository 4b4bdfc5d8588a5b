"""Command-line interface: exit codes, exact text lines, JSON schema."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from dihedralinv import cli, freealgebra, kernelcalc
from dihedralinv.cli import main
from dihedralinv.exactpoly import Polynomial

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_relations_verify_text(runner):
    result = run(runner, ["relations", "verify", "--n", "4", "--m", "3"])
    assert result.exit_code == 0
    assert ("R_{2,2,2}: OK, R(4)_{4,2}: OK, R(4)_{6,2}: OK, R(4)_{4,4}: OK"
            in result.output)


def test_relations_verify_two_slots_drops_determinant(runner):
    result = run(runner, ["relations", "verify", "--n", "5", "--m", "2"])
    assert result.exit_code == 0
    assert "R_{2,2,2}" not in result.output
    assert "R(5)_{5,2}: OK" in result.output
    assert "R(5)_{6,4}: OK" in result.output


def test_relations_verify_rejects_small_n(runner):
    result = runner.invoke(main, ["relations", "verify", "--n", "2"])
    assert result.exit_code == 2


def test_relations_verify_rejects_one_slot(runner):
    result = runner.invoke(main, ["relations", "verify", "--n", "4",
                                  "--m", "1"])
    assert result.exit_code == 2


def test_relations_json_schema(runner):
    result = run(runner, ["relations", "verify", "--n", "4", "--m", "2",
                          "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert set(payload) == {"schema", "command", "params", "tables",
                            "verdicts"}
    assert payload["schema"] == "1"
    assert payload["command"] == "relations verify"
    assert payload["params"]["n"] == 4
    assert all(v["status"] == "ok" for v in payload["verdicts"])


def test_json_output_is_stable(runner):
    args = ["kernel", "mingens", "--n", "4", "--m", "2", "--format", "json"]
    first = run(runner, args).output
    second = run(runner, args).output
    assert first == second
    payload = json.loads(first)
    assert {"schema", "command", "params", "tables", "verdicts"} \
        == set(payload)


def test_kernel_mingens_text(runner):
    result = run(runner, ["kernel", "mingens", "--n", "4", "--m", "2"])
    assert result.exit_code == 0
    assert "degree 6: 3, degree 8: 6, total 9" in result.output


def test_kernel_dim_includes_zero_rows(runner):
    result = run(runner, ["kernel", "dim", "--n", "4", "--m", "2",
                          "--max-degree", "6"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "degree 0: 0"
    assert lines[-1] == "degree 6: 3"
    assert len(lines) == 7


@pytest.mark.parametrize("n,m", [(6, 8), (4, 16)])
def test_kernel_dim_many_variables(runner, n, m):
    # F(6, 8) has 1 752 variables and F(4, 16) has 4 012: counting and
    # enumerating monomials must not recurse once per variable
    result = run(runner, ["kernel", "dim", "--n", str(n), "--m", str(m),
                          "--max-degree", "2"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "degree 0: 0", "degree 1: 0", "degree 2: 0"]


def test_kernel_basis_text(runner):
    result = run(runner, ["kernel", "basis", "--n", "4", "--m", "2",
                          "--degree", "6"])
    assert result.exit_code == 0
    assert "multidegree (4, 2):" in result.output
    assert "rho[2,0]*pi[2,2] - 2*rho[1,1]*pi[3,1] + rho[0,2]*pi[4,0]" \
        in result.output


@pytest.mark.parametrize("args,digest", [
    (["--n", "4", "--m", "3", "--degree", "10"],
     "f0ab23067c52ecf6193952b4cbb578e122f7ef2b7fffdfc115f3aff0fe24f6df"),
    (["--n", "5", "--m", "2", "--degree", "12"],
     "5df328666640f17f9ee22fe35dadcd975b98b8f3c7f6f5a1f71871317f34b8f5"),
    # relations with up to six mixed rho symbols, where the 2^k of the
    # integer phi images must be divided back out exactly
    (["--n", "6", "--m", "3", "--degree", "12"],
     "7d5df25e23bb9288ad0e5db5c8d27305c3f506994e9d57c919f61be6e9621918"),
], ids=["n4-m3-d10", "n5-m2-d12", "n6-m3-d12"])
def test_kernel_basis_json_digest(runner, args, digest):
    # every printed kernel element, byte for byte: the basis, its order,
    # and the scaling and sign of each relation
    result = run(runner, ["kernel", "basis"] + args + ["--format", "json"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("args,digest", [
    (["kernel", "dim", "--n", "6", "--m", "3"],
     "bd235d360ba2728d4146b735c1b5085aecd35051a504ed63de376c7585bef568"),
    (["kernel", "mingens", "--n", "4", "--m", "4"],
     "4a1468ec8e98a533ac890a3128d683af020a5c92979204d388cfd7a973a74680"),
    (["kernel", "mingens", "--n", "5", "--m", "3"],
     "e6e9094adf359437b31264629ef1639ab5b2625803bcc78d557e834cd4e8d14f"),
], ids=["dim-n6-m3", "mingens-n4-m4", "mingens-n5-m3"])
def test_kernel_json_digest(runner, args, digest):
    # every dimension and minimal-generator count, byte for byte
    result = run(runner, args + ["--format", "json"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_kernel_dim_builds_each_polarization_once(runner, monkeypatch):
    # a fresh algebra, which holds the phi images and the kernel bases, so
    # every one is built in this run; the polarizations come from one table
    # per algebra
    calls = []
    for name in ("q_pol", "p_pol"):
        def spy(*args, _real=getattr(freealgebra, name), **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)
        monkeypatch.setattr(freealgebra, name, spy)
    A = freealgebra.FreeAlgebra(4, 3)
    monkeypatch.setattr(kernelcalc, "free_algebra", lambda n, m: A)
    result = run(runner, ["kernel", "dim", "--n", "4", "--m", "3"])
    assert result.exit_code == 0
    assert len(A._phi_cache) > 1
    assert len(calls) <= A.universe.nvars


def test_kernel_dim_validates_few_polynomials(runner, monkeypatch):
    # sums, products, scalings and renamings build their results in stored
    # form; the validating constructor runs for the kernel basis elements
    # (310 here) and the phi tables, not for every product
    A = freealgebra.FreeAlgebra(4, 3)
    monkeypatch.setattr(kernelcalc, "free_algebra", lambda n, m: A)
    calls = []
    real = Polynomial.__init__

    def spy(self, *args, **kwargs):
        calls.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", spy)
    result = run(runner, ["kernel", "dim", "--n", "4", "--m", "3"])
    assert result.exit_code == 0
    assert len(calls) <= 400


def test_kernel_basis_empty_component(runner):
    result = run(runner, ["kernel", "basis", "--n", "4", "--m", "2",
                          "--degree", "4"])
    assert result.exit_code == 0
    assert "(empty component)" in result.output


def test_decompose_kernel_json(runner):
    result = run(runner, ["decompose", "kernel", "--n", "4", "--m", "3",
                          "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    rows = payload["tables"][0]["rows"]
    assert {"degree": 6, "partition": [4, 2], "multiplicity": 1} in rows
    assert {"degree": 10, "partition": [8, 2], "multiplicity": 3} in rows


def test_decompose_invariants_matches_ambient_minus_kernel(runner):
    inv = json.loads(run(runner, ["decompose", "invariants", "--n", "4",
                                  "--m", "2", "--format", "json"]).output)
    amb = json.loads(run(runner, ["decompose", "ambient", "--n", "4",
                                  "--m", "2", "--format", "json"]).output)
    ker = json.loads(run(runner, ["decompose", "kernel", "--n", "4",
                                  "--m", "2", "--format", "json"]).output)

    def as_dict(payload):
        out = {}
        for row in payload["tables"][0]["rows"]:
            out[(row["degree"], tuple(row["partition"]))] \
                = row["multiplicity"]
        return out

    inv_d, amb_d, ker_d = as_dict(inv), as_dict(amb), as_dict(ker)
    for key in set(amb_d) | set(inv_d) | set(ker_d):
        assert amb_d.get(key, 0) == inv_d.get(key, 0) + ker_d.get(key, 0)


def test_decompose_ambient_refuses_deep_truncation(runner):
    result = runner.invoke(main, ["decompose", "ambient", "--n", "4",
                                  "--m", "2", "--max-degree", "12"])
    assert result.exit_code == 2
    assert "only valid through degree 2n+2 = 10" in result.output


def test_decompose_kernel_refuses_deep_truncation(runner):
    result = runner.invoke(main, ["decompose", "kernel", "--n", "4",
                                  "--m", "2", "--max-degree", "11"])
    assert result.exit_code == 2
    assert ("the ambient assembly is only valid through degree "
            "2n+2 = 10") in result.output


def test_hilbert_text(runner):
    result = run(runner, ["hilbert", "--n", "4", "--max-degree", "8"])
    assert result.exit_code == 0
    assert result.output.strip() == "1, 0, 1, 0, 2, 0, 2, 0, 3"


def test_groebner_demo(runner):
    result = run(runner, ["groebner", "demo", "--n", "4"])
    assert result.exit_code == 0
    assert "initial ideal: x1^5, x1*y1, y1^4" in result.output
    assert "generating function 1 2 2 2 1" in result.output


def test_groebner_demo_json_digest(runner):
    # the reduced basis with every coefficient, its order, the staircase
    # and its generating function, byte for byte
    result = run(runner, ["groebner", "demo", "--n", "5", "--format", "json"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() \
        == "5a404da5b2b84c6a8f80f427a5eea5f12b6650f789cfdb4b2fd349d4b058aff0"


def test_hironaka_verify_two_slots(runner):
    result = run(runner, ["hironaka", "verify", "--n", "4", "--m", "2"])
    assert result.exit_code == 0
    assert "independence: OK" in result.output
    assert "Hilbert series identity: OK" in result.output
    assert "spanning: OK" in result.output


def test_hironaka_verify_cyclic_model(runner):
    result = run(runner, ["hironaka", "verify", "--n", "4", "--m", "3",
                          "--model", "cyclic", "--max-degree", "8"])
    assert result.exit_code == 0


@pytest.mark.parametrize("args,digest", [
    (["hironaka", "verify", "--n", "4", "--m", "3"],
     "594c4b8ac6a065df38f9baf5de3336607fc2d2106585ea55f3e53fe898f9e918"),
    (["hironaka", "verify", "--n", "4", "--m", "3", "--model", "cyclic"],
     "5b56e47d564802e3822bdaacc754c7fe20d4baf8fac588fe5fd5936cda365eeb"),
    (["hironaka", "verify", "--n", "5", "--m", "2"],
     "b64fc0565ba8019743d96a374f912b2c8b3b4de984edfa5f73bb3f908c264146"),
    (["report", "paper", "--n", "4"],
     "3f012f2434c7f185bfc8cba374bd247c4bc81d9ceac4dce628e26e3f95479171"),
], ids=["n4-m3", "n4-m3-cyclic", "n5-m2", "report-paper-n4"])
def test_hironaka_json_digest(runner, args, digest):
    # every verdict, witness and failure line of the free-module checks,
    # byte for byte
    result = run(runner, args + ["--format", "json"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_hironaka_no_builtin_table(runner):
    result = runner.invoke(main, ["hironaka", "verify", "--n", "5",
                                  "--m", "3"])
    assert result.exit_code == 2


def test_max_degree_guard(runner):
    result = runner.invoke(main, ["kernel", "dim", "--n", "4", "--m", "2",
                                  "--max-degree", "12"])
    assert result.exit_code == 2
    forced = run(runner, ["kernel", "dim", "--n", "4", "--m", "2",
                          "--max-degree", "12", "--force"])
    assert forced.exit_code == 0
    assert "degree 12:" in forced.output


def test_resource_cap_exit_code(runner):
    result = runner.invoke(main, ["kernel", "dim", "--n", "6", "--m", "3",
                                  "--max-degree", "10", "--force",
                                  "--resource-cap", "50"])
    assert result.exit_code == 2
    assert "resource cap" in result.output.lower() \
        or "resource cap" in (result.stderr or "").lower()


def test_malformed_resource_cap_env_exits_2(runner, monkeypatch):
    monkeypatch.setenv("DIHEDRALINV_RESOURCE_CAP", "abc")
    result = runner.invoke(main, ["kernel", "dim", "--n", "4", "--m", "2"])
    assert result.exit_code == 2
    assert "DIHEDRALINV_RESOURCE_CAP='abc' is not an integer" \
        in result.output


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_nonpositive_resource_cap_exits_2(runner, cap):
    result = runner.invoke(main, ["kernel", "dim", "--n", "4", "--m", "2",
                                  "--resource-cap", cap])
    assert result.exit_code == 2
    assert "the resource cap must be positive" in result.output
    assert "basis monomials" not in result.output


@pytest.mark.parametrize("args", [
    ["kernel", "dim", "--n", "4", "--max-degree", "-1"],
    ["kernel", "basis", "--n", "4", "--degree", "-2"],
    ["kernel", "mingens", "--n", "4", "--max-degree", "-1"],
    ["hironaka", "verify", "--n", "4", "--max-degree", "-1"],
    ["decompose", "invariants", "--n", "4", "--max-degree", "-1"],
    ["hilbert", "--n", "4", "--max-degree", "-1"],
])
def test_negative_degree_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    option, value = args[-2:]
    assert ("Invalid value for '%s': %s is not in the range x>=0."
            % (option, value)) in result.output


def test_report_paper(runner):
    result = run(runner, ["report", "paper", "--n", "4"])
    assert result.exit_code == 0
    assert "minimal generators, m=3: {6: 28, 8: 75} (total 103)" \
        in result.output
    assert "GL-generation, m=3: OK" in result.output


def test_report_paper_other_n_rejected(runner):
    result = runner.invoke(main, ["report", "paper", "--n", "5"])
    assert result.exit_code == 2


def _failed_paper_claims(runner):
    """Exit code, the failed claims and the number of passed ones."""
    result = runner.invoke(main, ["report", "paper", "--n", "4",
                                  "--format", "json"])
    verdicts = json.loads(result.stdout)["verdicts"]
    failed = [v["claim"] for v in verdicts if v["status"] != "ok"]
    return result.exit_code, failed, len(verdicts) - len(failed)


def _declared_weight(name, weight):
    """named_relations with the declared weight of relation `name` set to
    `weight`."""
    real = cli.named_relations

    def patched(n, m):
        return [(rel, g, weight if rel == name else w)
                for rel, g, w in real(n, m)]

    return patched


def _without_row(table, weight, *args):
    """A built-in Hironaka table with its one row at `weight` dropped."""
    primaries, rows = table(*args)
    kept = [row for row in rows if row[0] != weight]
    assert len(kept) == len(rows) - 1
    return lambda *_: (primaries, kept)


def _without_first_generator(short_m):
    """gl_generation_report, handed the named relations without the first
    one when m = short_m."""
    real = cli.gl_generation_report

    def patched(gens, D, **kwargs):
        m = gens[0].algebra.m
        return real(gens[1:] if m == short_m else gens, D, **kwargs)

    return patched


# one change per verdict of `report paper`: (name in cli, its replacement,
# the one claim that must fail)
PAPER_NEGATIVES = {
    # R_{2,2,2} is its own reversal, so it gets another weight of degree 6
    "R222-weight": ("named_relations",
                    lambda: _declared_weight("R_{2,2,2}", (4, 2, 0)),
                    "R_{2,2,2} maps to zero and has highest weight "
                    "[4, 2, 0]"),
    "R42-reversed": ("named_relations",
                     lambda: _declared_weight("R(4)_{4,2}", (0, 2, 4)),
                     "R(4)_{4,2} maps to zero and has highest weight "
                     "[0, 2, 4]"),
    "R62-reversed": ("named_relations",
                     lambda: _declared_weight("R(4)_{6,2}", (0, 2, 6)),
                     "R(4)_{6,2} maps to zero and has highest weight "
                     "[0, 2, 6]"),
    "R44-reversed": ("named_relations",
                     lambda: _declared_weight("R(4)_{4,4}", (0, 4, 4)),
                     "R(4)_{4,4} maps to zero and has highest weight "
                     "[0, 4, 4]"),
    # one generator more than each kernel needs
    "mingens-m2": ("PAPER_MINGENS",
                   lambda: ((2, "two", 10), (3, "three", 103)),
                   "two-vector kernel needs 10 generators"),
    "mingens-m3": ("PAPER_MINGENS",
                   lambda: ((2, "two", 9), (3, "three", 104)),
                   "three-vector kernel needs 104 generators"),
    # each table without one secondary row; the (3, 1) and (1, 3) rows of
    # the m = 2 table would not do, as the swap regenerates each from the
    # other
    "table-m2": ("secondary_table_m2",
                 lambda: _without_row(kernelcalc.secondary_table_m2, (0, 0),
                                      4),
                 "two-vector free module verified"),
    "table-m3": ("secondary_table_n4_m3",
                 lambda: _without_row(kernelcalc.secondary_table_n4_m3,
                                      (4, 3, 3)),
                 "three-vector free module verified"),
    "table-cyclic": ("cyclic_table_n4_m3",
                     lambda: _without_row(kernelcalc.cyclic_table_n4_m3,
                                          (4, 4, 4)),
                     "rotation-subgroup free module verified"),
    "gl-m2": ("gl_generation_report", lambda: _without_first_generator(2),
              "named relations generate the kernel GL-ideal, m=2"),
    "gl-m3": ("gl_generation_report", lambda: _without_first_generator(3),
              "named relations generate the kernel GL-ideal, m=3"),
}


@pytest.mark.parametrize("case", PAPER_NEGATIVES)
def test_report_paper_fails_exactly_one_claim(runner, monkeypatch, case):
    # each of the eleven verdicts fails on its own change, and only it
    name, replacement, claim = PAPER_NEGATIVES[case]
    monkeypatch.setattr(cli, name, replacement())
    assert _failed_paper_claims(runner) == (1, [claim], 10)


def test_out_of_memory_exits_2(runner, monkeypatch):
    # a query that runs out of memory reports it on one line, with no
    # traceback
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "kernel_basis_at", exhausted)
    result = runner.invoke(main, ["kernel", "basis", "--n", "3", "--m", "1",
                                  "--degree", "4"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == ("out of memory: the query needs more memory "
                             "than this process can get\n")


def _leaf_commands(group, path=()):
    """(full name, command) for every command below `group` that is not
    itself a group."""
    for name, command in sorted(group.commands.items()):
        if isinstance(command, click.Group):
            yield from _leaf_commands(command, path + (name,))
        else:
            yield " ".join(path + (name,)), command


def _required_args(command):
    """Arguments that satisfy every required parameter of `command`."""
    args = []
    for param in command.params:
        if isinstance(param, click.Argument):
            args.append(param.type.choices[0])
        elif param.required:
            args += [param.opts[0], "4"]
    return args


def test_every_command_is_guarded(runner, monkeypatch):
    # a resource-cap overrun or running out of memory inside any command
    # exits 2 with one line on stderr and no traceback
    def raising(exc):
        def callback(*args, **kwargs):
            raise exc
        return callback

    leaves = dict(_leaf_commands(main))
    assert {"kernel dim", "report"} <= set(leaves)
    for name, command in leaves.items():
        for exc, line in [
                (MemoryError(), "out of memory: the query needs more memory "
                                "than this process can get"),
                (kernelcalc.ResourceCapError("component (4, 2, 2) needs 9"),
                 "resource cap exceeded: component (4, 2, 2) needs 9")]:
            monkeypatch.setattr(command, "callback", raising(exc))
            result = runner.invoke(main,
                                   name.split() + _required_args(command))
            assert (name, result.exit_code, result.stdout, result.stderr) \
                == (name, 2, "", line + "\n")


def _readme_commands():
    """(arguments, the output line shown under it or None) for every
    `dihedralinv` line of README's "Command line" block."""
    text = README.read_text()
    block = text.split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines() + [""]
    return [(shlex.split(line)[1:],
             after[4:] if after.startswith("#   ") else None)
            for line, after in zip(lines, lines[1:])
            if line.startswith("dihedralinv ")]


def test_readme_command_line_block_runs(runner):
    # every command the README shows exits 0 and prints the line shown
    # under it; together they run every command of the interface
    commands = _readme_commands()
    shown = [" ".join(args) for args, _ in commands]
    assert [name for name, _ in _leaf_commands(main)
            if not any(s.startswith(name + " ") for s in shown)] == []
    for args, line in commands:
        result = run(runner, args)
        assert result.exit_code == 0, args
        if line is not None:
            assert line in result.output, args
    assert sum(line is not None for _, line in commands) == 2


def _run_module(args, **env):
    """`python -m dihedralinv.cli ARGS` in a fresh interpreter on the
    package's source tree, the way the benchmark runs it, with `env` added
    to the environment."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dihedralinv.cli"] + args,
                          env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_prints_what_the_runner_prints(runner):
    args = ["kernel", "dim", "--n", "4", "--m", "2", "--format", "json"]
    result = _run_module(args)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == run(runner, args).stdout


@pytest.mark.parametrize("args", [
    ["report", "paper", "--n", "4"],
    ["kernel", "basis", "--n", "4", "--m", "3", "--degree", "8"],
    ["groebner", "demo", "--n", "5"],
], ids=["report-paper", "kernel-basis", "groebner-demo"])
def test_report_bytes_do_not_depend_on_the_hash_seed(args):
    # byte-stable output must not lean on set or dict order of hashed keys:
    # term dicts and staircase sets are keyed by monomial tuples
    args = args + ["--format", "json"]
    first, second = (_run_module(args, PYTHONHASHSEED=seed)
                     for seed in ("0", "12345"))
    assert [r.returncode for r in (first, second)] == [0, 0]
    assert first.stdout.encode() == second.stdout.encode()


@pytest.mark.parametrize("args, option", [
    (["kernel", "dim", "--n", "2"], "--n"),
    (["kernel", "dim", "--n", "4", "--m", "0"], "--m"),
    (["report", "paper", "--n", "2"], "--n"),
])
def test_module_entry_point_rejects_out_of_range(args, option):
    result = _run_module(args)
    assert (result.returncode, result.stdout) == (2, "")
    errors = [line for line in result.stderr.splitlines()
              if line.startswith("Error:")]
    assert len(errors) == 1
    assert "Invalid value for '%s'" % option in errors[0]


def test_module_entry_point_reports_a_cap_overrun_on_one_line():
    result = _run_module(["kernel", "dim", "--n", "4", "--m", "2",
                          "--resource-cap", "3"])
    assert (result.returncode, result.stdout) == (2, "")
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("resource cap exceeded: ")
