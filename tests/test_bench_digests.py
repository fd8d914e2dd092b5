"""The benchmark's pinned outputs hold on this tree.

Every ``cli`` entry of the perfbench catalogues (``perfbench/workloads.py``)
is rerun in this process, through the catalogue's own runner, and the sha256
of its stdout is compared with ``perfbench/digests.json``.  Nothing under
``perfbench/`` is written, so a change that moves a digest fails here, and
only ``perfbench/record_digests.py`` records new ones.  Run alone:

    PYTHONPATH=src python -m pytest -q tests/test_bench_digests.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import ellformal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

sys.path.insert(0, str(PERFBENCH))  # workloads imports its sibling ``stats``
try:
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))

CLI_ENTRIES = [(workload, entry) for workload in workloads.WORKLOADS.values()
               for entry in workload.entries if entry.kind == "cli"]


@pytest.fixture(scope="module")
def digests():
    return workloads.load_digests()


@pytest.mark.parametrize("workload,entry", CLI_ENTRIES, ids=[e.id for _, e in CLI_ENTRIES])
def test_cli_entry_prints_its_recorded_digest(workload, entry, digests):
    outcome = workloads.Runner(ellformal, workload).call(workloads.Job(entry))
    assert outcome.error is None
    code, stdout = outcome.value
    assert code == 0
    assert workloads.sha256_text(stdout) == digests[entry.id]
