"""The CLI's output bytes, pinned in this tree.

``tools/byte_gates.py --manifest`` runs ``gen-data``, ``ablate``,
``train --variant full``, ``eval``, ``gate-stats`` and ``perturb`` for
``--seed 1`` at L=1, (3, 2) and (9, 1) in one process, with BLAS on one
thread, and hashes every file they leave. The committed manifest holds the
bits of the build named on its first line; on another numpy or BLAS build
this test fails and says so.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "byte_manifest.txt"


def read_manifest(path: Path) -> tuple[str, dict[str, str]]:
    build, digests = "", {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            build = line[2:]
        else:
            digest, name = line.split("  ", 1)
            digests[name] = digest
    return build, digests


def test_cli_output_bytes_match_the_committed_manifest(tmp_path):
    written = tmp_path / "manifest.txt"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "byte_gates.py"), "--manifest",
                           str(written)], capture_output=True, text=True)
    assert written.is_file(), proc.stdout + proc.stderr
    expected_build, expected = read_manifest(MANIFEST)
    build, digests = read_manifest(written)
    moved = sorted(name for name in expected.keys() | digests.keys()
                   if expected.get(name) != digests.get(name))
    assert not moved, (
        f"{len(moved)} of {len(expected)} files moved: {', '.join(moved)}\n"
        f"manifest written on: {expected_build}\nthis run:            {build}\n"
        "a change that moves bytes on purpose rewrites the manifest with "
        "`python3 tools/byte_gates.py --manifest tests/byte_manifest.txt` and lists the files")
    assert proc.returncode == 0, proc.stdout + proc.stderr
