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
import sys
from pathlib import Path

import pytest

from hyp3.cli import main

DATA = Path(__file__).with_name("data") / "document_digests.json"

COMMANDS = {
    "check": ["check", "--battery", "all", "--xi-min", "64", "--xi-max", "1024",
              "--xi-steps", "5", "--format", "both"],
    "modes": ["modes", "--battery", "strict_sin", "--xi-min", "32", "--xi-max", "1024",
              "--xi-steps", "6", "--grid", "256", "--format", "both"],
    "identities": ["identities", "--samples", "200", "--seed", "5"],
}


def _digests(name: str, out: Path) -> dict:
    """Run command ``name`` with ``--out out``: its exit code (the narrow check
    ladder is a verdict mismatch), and the sha256 of each file it writes."""
    rc = main(COMMANDS[name] + ["--out", str(out)])
    return {"exit": rc, "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                  for p in sorted(out.iterdir())}}


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
        doc = {name: _digests(name, Path(tmp) / name) for name in COMMANDS}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {DATA}", file=sys.stderr)
