"""Static drift checks over the library source.

Inside a solve, nodes are named by root position and the original ids
come back only at the door (``docs/ARCHITECTURE.md``, "Labels only at the
door").  The id-to-position translations that design removed must not
come back under their old names.  Nor may the second backing of
``Graph`` and ``PaletteAssignment`` (adjacency and palette sets next to
the arrays; "One backing per object").  Nor may the partition step's
second paths: the per-pair selection bodies, the machine-level
classification, the local greedy's order and recolor options, and the
helpers nothing called.  Nor may the parameter fields that made the
paper's exponents settable, or the options and constructors no caller
set.  Nor may the count kernels' explicit entry-owner array: an entry's
owner is implied by its run.  Nor may the 2-D slab count kernel and its
helpers: every pair is counted over its node range.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The removed translation helpers: ``GraphCSR.position``, the palette
#: store's row index and row lookup, and the ids-are-positions fast path.
RETIRED = re.compile(r"\.position\b|store\.index|rows_of|ids_are_positions")


#: The retired sets backing: its storage, materialisers, warm-store
#: probes and the per-backing fallbacks built on them.
RETIRED_BACKING = re.compile(
    r"_adj_store|_materialize_|\._sets\b|_STORE_UNAVAILABLE|_store_if_warm|has_csr"
    r"|build_csr|_audit_bin_scalar"
)


def _hits(pattern):
    return [
        f"{path.relative_to(SRC.parent)}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]


def test_retired_id_translations_stay_out_of_src():
    hits = _hits(RETIRED)
    assert not hits, "retired id translations in src/:\n" + "\n".join(hits)


def test_retired_sets_backing_stays_out_of_src():
    hits = _hits(RETIRED_BACKING)
    assert not hits, "retired sets backing in src/:\n" + "\n".join(hits)


#: The retired partition-step paths, the options no caller set (the MIS
#: solver injection, the drivers' and baselines' ``validate`` switch and
#: ``ColorReduce.run``'s ``initial_ell`` among them), and the level
#: prefetch's mirror of the candidate sequence (`candidate_pairs`).
RETIRED_PATHS = re.compile(
    r"classify_machine_level|classify_machines|MachineChunk|split_into_chunks"
    r"|_conditional_estimate|already_colored|external_of_position"
    r"|cost_over_seed_ints|restored_ancestors|head_pairs|mis_solver"
    r"|self\.validate\b|\bvalidate\s*[:=]|initial_ell\s*=\s*None|wrapped_charge"
)


def test_retired_partition_paths_stay_out_of_src():
    hits = _hits(RETIRED_PATHS)
    assert not hits, "retired partition-step paths in src/:\n" + "\n".join(hits)


#: The retired parameter fields and constructors: the exponents are the
#: module constants of ``core/params.py`` and ``core/low_space/params.py``.
RETIRED_PARAMS = re.compile(
    r"_exponent\b|_slack_override|enforce_palette_surplus|selection_chunk_bits"
    r"|min_ell|with_strategy|def paper\("
)


def test_retired_parameter_fields_stay_out_of_src():
    hits = _hits(RETIRED_PARAMS)
    assert not hits, "retired parameter fields in src/:\n" + "\n".join(hits)


#: The retired prep array of palette-entry owners: the count kernel repeats
#: each node's bin over its entry run, and the level pass builds its own
#: owners.
RETIRED_PREP = re.compile(r"entry_nodes")


def test_retired_entry_owner_array_stays_out_of_src():
    hits = _hits(RETIRED_PREP)
    assert not hits, "retired prep arrays in src/:\n" + "\n".join(hits)


#: The retired 2-D slab count kernel, its segmented row helpers, its
#: element cap and the evaluators' slab cost hook: ``_count_range`` counts
#: every pair over its node range.
RETIRED_KERNELS = re.compile(
    r"_count_slab|segment_sum_rows|rowwise_bincount|MAX_ELEMENTS|_slab_costs"
)


def test_retired_slab_kernel_stays_out_of_src():
    hits = _hits(RETIRED_KERNELS)
    assert not hits, "retired slab count kernel in src/:\n" + "\n".join(hits)
