"""Time a cold start of the package in this fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR CONFIG_PATH

Prints one JSON object: ``import_s`` (import scoreshift and
scoreshift.experiments) and ``setup_s`` (that plus ``load_config``).
"""

import time

start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import scoreshift  # noqa: E402,F401
from scoreshift import experiments  # noqa: E402

imported = time.perf_counter()
experiments.load_config(sys.argv[2])
loaded = time.perf_counter()
print(json.dumps({"import_s": imported - start, "setup_s": loaded - start}))
