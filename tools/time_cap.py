"""Time one ``ellformal`` CLI call at a given flag value, as a subprocess.

The size caps in ``_COMMANDS`` (``src/ellformal/cli.py``) and in the README
are measured this way: one call on (-3/7, 5/11), the slowest curve of the
test corpus, wall seconds from process start to exit.  Run from the
repository root, for example

    python3 tools/time_cap.py grouplaw --order 82
    python3 tools/time_cap.py expand --order 1450 --what fe
    python3 tools/time_cap.py grouplaw --order 82 --g2=-3/7^101

``--g2`` and ``--g3`` default to -3/7 and 5/11 for every command that takes
a curve (``classical`` takes none); any other flags are passed on as given.
The report goes to /dev/null, so only the time is printed, with the exit
status when it is not 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command")
    parser.add_argument("--g2", default="-3/7")
    parser.add_argument("--g3", default="5/11")
    args, rest = parser.parse_known_args(argv)
    call = [sys.executable, "-m", "ellformal", args.command, *rest]
    if args.command != "classical":
        call += [f"--g2={args.g2}", f"--g3={args.g3}"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    status = subprocess.run(call, env=env, stdout=subprocess.DEVNULL).returncode
    seconds = time.perf_counter() - start
    print(f"{seconds:.2f} s" + (f" (exit {status})" if status else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
