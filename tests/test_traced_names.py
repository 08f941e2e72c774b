"""Every name the benchmark's tracer wraps exists in ``affsymp``.

``perfbench/tracing.py`` patches functions and methods by name from outside
the package; a rename or a deletion here would leave a target untraced.
The tracer is loaded by file path and is not edited.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(f"affsymp.{module}")
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{module}.{path}" for module, path, *_ in tracing.TARGETS if not _resolves(module, path)
    ]
    assert missing == []
