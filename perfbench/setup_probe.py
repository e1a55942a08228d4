"""Time the set-up a proof run pays before its first proof: importing
hyperproof and loading every identity file of the workload.

    python3 perfbench/setup_probe.py SRC_DIR FILE...

Prints the elapsed seconds and then the host speed measured right after
(hostspeed.py).  Interpreter start-up is not included.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from hyperproof import cli  # noqa: E402

for path in sys.argv[2:]:
    cli.load_identity(path)
elapsed = time.perf_counter() - t0

import hostspeed  # noqa: E402

hostspeed.warm_up()
speeds = [hostspeed.sample() for _ in range(20)]
print(repr(elapsed), repr(sum(speeds) / len(speeds)))
