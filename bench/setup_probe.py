"""One set-up in a fresh interpreter: import kzring.cli, build the configs.

Usage: python setup_probe.py <workload> <workload-seed>

The parent times this process from spawn to exit (that is `setup_s`) and
reads the in-process import time from the JSON line it prints.  kzring
must be importable (the parent puts src on PYTHONPATH).
"""

import json
import sys
import time

import configs

t0 = time.perf_counter()
import kzring.cli  # noqa: E402,F401

t1 = time.perf_counter()
configs.build(sys.argv[1], int(sys.argv[2]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
