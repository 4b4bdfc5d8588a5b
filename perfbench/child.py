"""One fresh benchmark process; run.py starts it and reads its last line.

    python3 perfbench/child.py setup <workload>
        time `import dihedralinv.cli` plus building the workload's algebras
    python3 perfbench/child.py session <op-seed>
        one gl-tables library session
    python3 perfbench/child.py trace <workload> <op-seed> <spans-file>
        one operation of the workload in-process, with tracing on

Each prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter
from time import perf_counter

from workloads import ALGEBRAS, CLI_ARGS, gl_queries


def setup(workload):
    start = perf_counter()
    import dihedralinv.cli  # noqa: F401  (the import is what is timed)
    from dihedralinv.exactpoly import xy_universe
    from dihedralinv.freealgebra import free_algebra

    for n, m in ALGEBRAS[workload]:
        free_algebra(n, m)
        xy_universe(m)
    elapsed = perf_counter() - start
    import dihedralinv

    return {"setup_s": elapsed, "module": dihedralinv.__file__}


def session(seed):
    """Answer every query of the seeded sequence; time each one."""
    from dihedralinv import gltheory

    out = []
    for n, m, D, kind in gl_queries(seed):
        start = perf_counter()
        table = getattr(gltheory, kind)(n, m, D)
        dims = [table[t].total_dim() for t in range(D + 1)]
        elapsed = perf_counter() - start
        out.append({"n": n, "m": m, "D": D, "kind": kind, "s": elapsed,
                    "dims": dims,
                    "entries": [[t, list(lam), mult] for t in range(D + 1)
                                for lam, mult in table[t].items()]})
    return out


def cli_command(workload):
    """Run the workload's command in-process; (exit code, stdout text)."""
    import click

    from dihedralinv import cli

    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main(CLI_ARGS[workload] + ["--format", "json"],
                     standalone_mode=False)
        except SystemExit as exc:
            code = exc.code or 0
        except click.ClickException as exc:
            code = exc.exit_code
    return code, buf.getvalue()


def trace(workload, seed, spans_file):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    if workload == "gl-tables":
        answer = tracer.run(session, seed)
        code = 0
    else:
        code, answer = tracer.run(cli_command, workload)
    metrics = layer_metrics(tracer.spans)
    with open(spans_file, "w") as f:
        json.dump({"workload": workload, "op": seed,
                   "fields": ["name", "start", "end", "parent", "attrs"],
                   "spans": tracer.spans}, f)
    calls = Counter(span[0] for span in tracer.spans)
    # time spent here after the traced operation, which is not overhead
    after_s = perf_counter() - tracer.spans[0][2]
    return {"code": code, "answer": answer, "metrics": metrics,
            "calls": calls, "after_s": after_s}


def main(argv):
    kind = argv[0]
    if kind == "setup":
        result = setup(argv[1])
    elif kind == "session":
        result = {"code": 0, "answer": session(int(argv[1]))}
    elif kind == "trace":
        result = trace(argv[1], int(argv[2]), argv[3])
    else:
        raise SystemExit("unknown child kind %r" % kind)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
