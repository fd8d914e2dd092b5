"""Check the stdout of every CLI catalogue entry against its recorded sha256.

    python3 tools/check_digests.py

Run from anywhere in the checkout.  Reruns each ``cli`` entry of the
perfbench catalogues (``perfbench/workloads.py``) in this process, on the
``ellformal`` of the checkout's ``src``, and compares the sha256 of its
stdout with ``perfbench/digests.json``.  Prints one line per mismatch, then
``N entries, M mismatches``, and exits 1 on any mismatch, missing digest or
nonzero exit code.  It writes nothing; ``perfbench/record_digests.py``
records the digests.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from worker import import_program  # noqa: E402


def main() -> int:
    package = import_program()
    digests = workloads.load_digests()
    checked = mismatches = 0
    for workload in workloads.WORKLOADS.values():
        runner = workloads.Runner(package, workload)
        for entry in workload.entries:
            if entry.kind != "cli":
                continue
            checked += 1
            outcome = runner.call(workloads.Job(entry))
            if outcome.error is not None:
                problem = f"raised {outcome.error!r}"
            elif outcome.value[0] != 0:
                problem = f"exit {outcome.value[0]}"
            elif entry.id not in digests:
                problem = "no recorded digest"
            elif workloads.sha256_text(outcome.value[1]) != digests[entry.id]:
                problem = "digest differs"
            else:
                continue
            mismatches += 1
            print(f"{entry.id}: {problem}")
    print(f"{checked} entries, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
