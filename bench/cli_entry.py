"""Traced stand-in for `python -m kzring.cli`.

Usage: python cli_entry.py <trace-file> <kzring arguments...>

Times the import of kzring.cli, installs the tracer's wrappers, calls
kzring.cli.main with the same arguments the untraced run passes to the real
module, saves the spans to <trace-file> and exits with main's return code.
"""

import sys
import time

t0 = time.perf_counter_ns()
import kzring.cli  # noqa: E402

t1 = time.perf_counter_ns()

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.record("import.kzring_cli", t0, t1)
tracer.install()
with tracer.span("cli.main"):
    code = kzring.cli.main(sys.argv[2:])
tracer.uninstall()
tracer.save(sys.argv[1])
sys.exit(code)
