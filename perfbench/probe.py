"""One set-up, timed from outside: ``run.py`` starts this script in a fresh
interpreter and reads the monotonic clock it prints once the program is
imported and the workload's inputs are written.

    python3 perfbench/probe.py <workload> <seed> <workdir>
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports cellscape.cli)

name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
wl = workloads.WORKLOADS[name](workdir, seed)
wl.setup()
ready = time.monotonic()
wl.cleanup()
print(repr(ready))
