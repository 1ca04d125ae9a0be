"""Golden digests of the documents and tables that ``hyp3`` writes.

Each command below writes into its own directory; the sha256 of every file
it writes is pinned, so a change that moves any value by one ulp, or any
byte of a key or a layout, fails here and names the file. Rewrite the
digests only for a change that is meant to move a document, and record the
move where the change is described::

    PYTHONPATH=src python tests/test_documents.py
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest
from test_integrand_bits import PLANE2, PLANE3

from hyp3.cli import main
from hyp3.opfile import dump_operator

DATA = Path(__file__).with_name("data") / "document_digests.json"

#: 2-D operators of both orders, read from files by a relative path, since a
#: document's ``config`` block records the path
OPERATOR_FILES = {"plane3.op": PLANE3, "plane2.op": PLANE2}

COMMANDS = {
    "check": ["check", "--battery", "all", "--xi-min", "64", "--xi-max", "1024",
              "--xi-steps", "5", "--format", "both"],
    "modes": ["modes", "--battery", "strict_sin", "--xi-min", "32", "--xi-max", "1024",
              "--xi-steps", "6", "--grid", "256", "--format", "both"],
    "identities": ["identities", "--samples", "200", "--seed", "5"],
    **{f"check {f}": ["check", "--config", f, "--direction", "1,1", "--xi-min", "64",
                      "--xi-max", "1024", "--xi-steps", "5", "--format", "both"]
       for f in OPERATOR_FILES},
}


def _digests(name: str, workdir: Path) -> dict:
    """Run command ``name`` in ``workdir``, next to ``OPERATOR_FILES``, with
    ``--out out``: its exit code (the narrow check ladder is a verdict
    mismatch), and the sha256 of each file it writes."""
    for f, op in OPERATOR_FILES.items():
        (workdir / f).write_text(dump_operator(op))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        rc = main(COMMANDS[name] + ["--out", "out"])
    finally:
        os.chdir(cwd)
    return {"exit": rc, "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                  for p in sorted((workdir / "out").iterdir())}}


@pytest.mark.parametrize("name", COMMANDS)
def test_documents_keep_their_bytes(tmp_path, capsys, name):
    want = json.loads(DATA.read_text())[name]
    got = _digests(name, tmp_path)
    assert capsys.readouterr().out == ""
    assert got["exit"] == want["exit"]
    assert sorted(got["files"]) == sorted(want["files"]), "the set of written files changed"
    differ = [f for f, sha in want["files"].items() if got["files"][f] != sha]
    assert not differ, f"{name} wrote different bytes to {', '.join(differ)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {}
        for name in COMMANDS:
            (Path(tmp) / name).mkdir()
            doc[name] = _digests(name, Path(tmp) / name)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {DATA}", file=sys.stderr)
