"""tools/output_digest.py: the byte-identity digests two checkouts are
compared by."""

import re
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def _run():
    return subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "output_digest.py"), str(_ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout


def test_digests_repeat_and_name_each_output_once():
    """Two runs print the same lines, each a SHA-256 hex digest, two
    spaces and a name, with no name repeated; the lifts, pairings,
    homotopy spreads and lifts of family members are among them."""
    first, second = _run(), _run()
    assert first == second
    lines = first.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    names = [line[66:] for line in lines]
    assert len(set(names)) == len(names)
    for kind in ("table ", "holonomy ", "lifts ", "pairing ", "homotopy spread ", "family lift "):
        assert any(name.startswith(kind) for name in names)
