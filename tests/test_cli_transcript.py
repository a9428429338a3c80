"""The CLI's text and exit codes on a fixed corpus match a recorded transcript.

Every command of CORPUS runs in-process through run_command; its stdout,
stderr and exit code are written one after another, and elapsed figures are
masked.  The result must equal tests/data/cli_transcript.txt byte for byte.
After a deliberate change to the CLI's output, regenerate the file with

    PYTHONPATH=src python tests/test_cli_transcript.py --write

and review the diff.
"""

import contextlib
import io
import os
import re
import shlex
import sys
from pathlib import Path

from lieq.casimirs import CASIMIR_GROUPS
from lieq.catalog import CATALOG_NAMES
from lieq.cli import run_command
from lieq.mhi import MHI_GROUPS

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = ROOT / "tests" / "data" / "cli_transcript.txt"

_HBAR_MAP = ("poincare_trivial_ext_hbar", "--map", "data/std.json")

CORPUS = (
    [("--help",)]
    + [("catalog", "show", name) for name in CATALOG_NAMES]
    + [("validate", name) for name in CATALOG_NAMES]
    + [("casimir", "verify", name, "--all") for name in CASIMIR_GROUPS]
    + [
        ("casimir", "verify", "galilei_central", "--expr", "M"),
        ("casimir", "verify", "poincare", "--expr", "C4P"),
        ("casimir", "verify", "poincare", "--expr", "KPx*Px - Px*KPx"),
        ("casimir", "verify", "poincare", "--expr", "(3*c^2*eps^-1 + m*w)*(KPx+Px)^3"),
        ("casimir", "verify", "poincare", "--expr", "(H + "),
    ]
    + [("casimir", "contract", *_HBAR_MAP, "--expr", label)
       for label in ("C1PE", "C2PE", "C4PE")]
    + [
        ("contract", "poincare_trivial_ext", "--map", "data/std.json",
         "--check-against", "galilei_central", "--rename", "data/std-rename.json"),
        ("contract", "full_relativistic", "--map", "data/std-full.json",
         "--check-against", "full_nonrelativistic", "--rename", "data/std-full-rename.json"),
        ("limit", "traditional"),
    ]
    + [("mhi", "show", group) for group in MHI_GROUPS + ("nosuch",)]
    + [
        ("mhi", "nparticle", "3"),
        ("report", "paper"),
        ("report", "paper", "--format", "json"),
    ]
)

_ELAPSED = [
    (re.compile(r"warnings \(\d+\.\d+ s\)$", re.M), "warnings (<elapsed> s)"),
    (re.compile(r'"elapsed_seconds": \d+(\.\d+)?'), '"elapsed_seconds": <elapsed>'),
]


def _run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call; data paths resolve at ROOT."""
    argv = [str(ROOT / a) if a.startswith("data/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def render():
    """The transcript of CORPUS, with elapsed figures masked."""
    old = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    try:
        blocks = []
        for argv in CORPUS:
            code, out, err = _run(argv)
            blocks.append("$ lieq %s\n%s--- stderr\n%s--- exit %d\n"
                          % (shlex.join(argv), out, err, code))
    finally:
        if old is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old
    text = "\n".join(blocks)
    for pattern, mask in _ELAPSED:
        text = pattern.sub(mask, text)
    return text


def test_cli_transcript_unchanged():
    assert render() == TRANSCRIPT.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_transcript.py --write")
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    TRANSCRIPT.write_text(render())
