#!/usr/bin/env python3
"""SHA-256 digests of every `bdsvi` command on every shipped scenario.

Runs each command of `bdsvi.cli` on each `scenarios/*.yaml` in process,
through `bdsvi.cli.run`, with BLAS pinned to one thread.  Prints one line per
run: scenario, command, exit code, then the digest of stdout, of stderr and
of each artifact the run wrote.  Two checkouts that produce the same output
agree byte for byte on every exit code, stream and artifact:

    python scripts/artifact_digests.py > after.txt
"""
import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy is imported

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bdsvi.cli import _COMMANDS, run  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main():
    for scenario in sorted((ROOT / "scenarios").glob("*.yaml")):
        for command in sorted(_COMMANDS):
            out, err = io.StringIO(), io.StringIO()
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = run([command, "--scenario", str(scenario), "--out", tmp])
                files = {p.name: _sha(p.read_bytes()) for p in sorted(Path(tmp).iterdir())}
            digests = [f"stdout={_sha(out.getvalue().encode())}", f"stderr={_sha(err.getvalue().encode())}"]
            digests += [f"{name}={sha}" for name, sha in files.items()]
            print(scenario.name, command, code, *digests, flush=True)


if __name__ == "__main__":
    main()
