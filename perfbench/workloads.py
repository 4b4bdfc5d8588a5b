"""The benchmark's three workloads, shared by the parent and its children.

The CLI workloads run at fixed (n, m, D) points because their answers are
defined per point; the seed only draws the gl-tables query sequences.  The
points are sized so that one cold command takes a few seconds: a run then
holds ten or more commands, and a full evaluation of 4 + 22 x 3 runs fits in
an hour.
"""

from __future__ import annotations

import random

CLI_ARGS = {
    # F(n, m) enumeration, relation canonicalisation, S_m transport, phi:
    # every sorted component is enumerated once, then read via transport.
    "kernel-dim": ["kernel", "dim", "--n", "6", "--m", "3"],
    # the headline reproduction: Hironaka tables, GL-generation, mingens.
    "paper": ["report", "paper", "--n", "4"],
}

WORKLOADS = ("kernel-dim", "paper", "gl-tables")

# (n, m) pairs whose free algebras a fresh process builds before the first
# component; gl-tables builds none.
ALGEBRAS = {
    "kernel-dim": [(6, 3)],
    "paper": [(4, 2), (4, 3)],
    "gl-tables": [],
}

# gl-tables: every (n, m) point at D = 2n + 2, for both table kinds, three
# times each, in a seeded order.  The multiset is fixed, so every session
# does the same work and the repeats make the schur_dim cache's sharing part
# of the workload; the seed moves only which query pays for a cold entry.
GL_POOL = [(4, 3), (5, 3), (4, 4), (6, 3), (3, 5)]
GL_KINDS = ("invariants_truncated", "kernel_decomposition")
GL_REPEATS = 3


def gl_queries(seed):
    """The query sequence of one gl-tables session: (n, m, D, kind)."""
    queries = [(n, m, 2 * n + 2, kind)
               for n, m in GL_POOL for kind in GL_KINDS] * GL_REPEATS
    random.Random(seed).shuffle(queries)
    return queries


def op_seed(seed, index):
    """Seed of the index-th operation of a run."""
    return seed * 1000 + index
