"""Record the sha256 of the stdout of every CLI catalogue entry.

    python3 perfbench/record_digests.py

Run from the repository root, at a commit whose CLI output is the reference
(reports are meant to stay byte-identical).  Writes ``perfbench/digests.json``.
"""

from __future__ import annotations

import json

import workloads
from worker import import_program


def main() -> int:
    package = import_program()
    digests = {}
    for workload in workloads.WORKLOADS.values():
        runner = workloads.Runner(package, workload)
        for entry in workload.entries:
            if entry.kind != "cli":
                continue
            outcome = runner.call(workloads.Job(entry))
            code, stdout = outcome.value
            if outcome.error is not None or code != 0:
                raise SystemExit(f"{entry.id}: exit {code}, {outcome.error!r}")
            digests[entry.id] = workloads.sha256_text(stdout)
    doc = {"about": "sha256 of the stdout of each CLI catalogue entry", "digests": digests}
    workloads.DIGESTS_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
