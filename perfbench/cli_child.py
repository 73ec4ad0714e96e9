"""The finmet cli under the tracer, for the traced cli run.

Usage: cli_child.py STATE_FILE CLI_ARGUMENT ...

Runs finmet.cli.main on the arguments with every traced function wrapped,
exits with its code, and writes the span totals and the import time of
finmet.cli to STATE_FILE, also when the command raises.
"""

import json
import sys
import time

t0 = time.perf_counter()
import finmet.cli  # noqa: E402

import_ms = (time.perf_counter() - t0) * 1e3

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
try:
    code = finmet.cli.main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"state": tracer.state(), "import_ms": import_ms}, fh)
sys.exit(code)
