"""``import affsymp`` loads neither OpenSSL, ``dataclasses`` nor
``tempfile``, and its lean SHA-256 gives ``hashlib``'s digests."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from affsymp.exact_linalg import sha256

SRC = Path(__file__).resolve().parents[1] / "src"

# heavy modules that nothing in affsymp needs at start-up: OpenSSL's
# libcrypto behind ``hashlib``, ``dataclasses`` with ``inspect`` and
# ``typing``, and ``tempfile`` with ``random`` and ``shutil``, which only a
# cache write needs
UNWANTED = ("hashlib", "_hashlib", "dataclasses", "inspect", "typing", "tempfile")

PAYLOADS = [b"", b"affsymp-matrix 1\n3 3 2\n0 0 1/1\n", "ω ∧ ω = 2 dx¹dy¹dx²dy²".encode()]


def _run_bare(code: str) -> str:
    """Run code in ``python -S`` (no ``site``, which preloads modules of its
    own) with ``src`` first on the path and no bytecode written; its
    standard output."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_import_loads_no_heavy_module():
    code = (
        "import sys\n"
        "import affsymp, affsymp.theorems, affsymp.cli\n"
        f"print(*sorted(set({UNWANTED!r}) & set(sys.modules)))\n"
    )
    assert _run_bare(code).split() == []


@pytest.mark.parametrize("payload", PAYLOADS)
def test_lean_sha256_matches_hashlib(payload):
    assert sha256(payload).hexdigest() == hashlib.sha256(payload).hexdigest()
    h = sha256()
    for i in range(0, len(payload), 5):
        h.update(payload[i:i + 5])
    assert h.hexdigest() == hashlib.sha256(payload).hexdigest()


def test_hashlib_fallback_gives_the_same_digest():
    # a build without either built-in module falls back to hashlib
    code = (
        "import sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "from affsymp.exact_linalg import sha256\n"
        "print(sha256.__module__, sha256(b'abc').hexdigest())\n"
    )
    module, digest = _run_bare(code).split()
    assert module in ("_hashlib", "hashlib")
    assert digest == hashlib.sha256(b"abc").hexdigest()
