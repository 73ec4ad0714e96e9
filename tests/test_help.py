"""finmet's --help texts, and argparse's errors for a missing or unknown
subcommand, byte for byte.

The expected text lives in fixtures/help.txt: one section per
invocation, headed "$ finmet ARGS", then "exit N", then what the
invocation wrote to stdout and stderr.  Run `python3 tests/test_help.py`
to rewrite every section's text after a deliberate change; a new
section is added by hand as its header line.  argparse formats help
differently from one Python minor version to the next, so the text is
pinned for one of them.
"""

import contextlib
import io
import os
import re
import sys

import pytest

from finmet import cli

PIN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures",
                   "help.txt")
PYTHON = (3, 11)
COLUMNS = "80"


def read_pin():
    """[(argv, expected text)] in the order of the file."""
    with open(PIN, encoding="utf-8", newline="") as fh:
        parts = re.split(r"^\$ finmet(.*)\n", fh.read(), flags=re.M)
    return [(head.split(), body) for head, body in zip(parts[1::2], parts[2::2])]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return "exit %d\n%s%s" % (code, out.getvalue(), err.getvalue())


SECTIONS = read_pin()


@pytest.mark.skipif(sys.version_info[:2] != PYTHON,
                    reason="help text is pinned for Python %d.%d" % PYTHON)
@pytest.mark.parametrize("argv,expected", SECTIONS,
                         ids=[" ".join(argv) for argv, _ in SECTIONS])
def test_help_text(monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert invoke(argv) == expected


def main():
    os.environ["COLUMNS"] = COLUMNS
    sections = read_pin()
    with open(PIN, "w", encoding="utf-8", newline="") as fh:
        for argv, _ in sections:
            fh.write("$ finmet%s\n%s" % ("".join(" " + w for w in argv),
                                         invoke(argv)))


if __name__ == "__main__":
    main()
