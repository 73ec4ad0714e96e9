"""Set-up time in a fresh process.

Usage: setup_child.py WORKLOAD [DOCUMENT ...]

Prints the seconds from just before `import finmet` until every document
is loaded by the program's public loader (for selftest, until the suites
module is imported).
"""

import sys
import time

t0 = time.perf_counter()
import finmet  # noqa: E402
from finmet import workspace  # noqa: E402

if sys.argv[1] == "selftest":
    import finmet.selftest  # noqa: E402,F401
for path in sys.argv[2:]:
    workspace.load_workspace_file(path)
print(repr(time.perf_counter() - t0))
