"""One cold set-up: import the package and build the given pairs.

    python3 bench/setup_probe.py <src dir> '<JSON list of [sub, sup] rules>'

Prints the seconds it took, measured inside this process so that the
interpreter's own start-up is not counted.  numpy is not imported here:
the package loads it lazily, on the first batch call, so it counts as
set-up only if the package starts importing it eagerly.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import zeckdual  # noqa: E402
import zeckdual.cli  # noqa: E402,F401

pairs = [zeckdual.SystemPair(sub, sup) for sub, sup in json.loads(sys.argv[2])]
print(time.perf_counter() - t0)
