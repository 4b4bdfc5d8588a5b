"""The benchmark's tracer wraps functions of the package by name; renaming
or deleting one of them must fail here, not only in a traced benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_target():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    result = subprocess.run(
        [sys.executable, "-c",
         "from perfbench.tracer import Tracer; Tracer().install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


TRACED_RUN = """
import contextlib
import io

from child import session
from dihedralinv import cli
from run import REQUIRED_CALLS
from tracer import Tracer, layer_metrics

tracer = Tracer()
tracer.install()


def command(args):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(args + ["--format", "json"], standalone_mode=False)


for workload, fn, arg in [
        ("kernel-dim", command, ["kernel", "dim", "--n", "4", "--m", "3",
                                 "--max-degree", "8"]),
        ("paper", command, ["report", "paper", "--n", "4"]),
        ("gl-tables", session, 1)]:
    tracer.spans.clear()
    tracer.run(fn, arg)
    fired = {span[0] for span in tracer.spans}
    missing = sorted(set(REQUIRED_CALLS[workload]) - fired)
    assert not missing, (workload, missing)
    layer_metrics(tracer.spans)
"""


def test_traced_commands_fire_every_required_span():
    # a span that no longer fires (a wrapped function that the program
    # stopped calling) fails the traced benchmark; catch it here
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "perfbench")]))
    result = subprocess.run(
        [sys.executable, "-c", TRACED_RUN],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
