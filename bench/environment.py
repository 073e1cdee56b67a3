"""The environment a result was measured in.

Results are comparable only when every field except ``commit`` and
``source_sha256`` is equal; ``compare.py`` refuses other pairs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
from pathlib import Path

# Fields that identify the code under test rather than the environment.
CODE_FIELDS = ("commit", "source_sha256")


def _commit(root: Path) -> str:
    """The checked-out commit read from .git, or "unknown" outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    if target.is_file():
        return target.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _source_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "curvetorsion").glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(root: Path) -> dict:
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "sympy": sympy.__version__,
        "sympy_ground_types": GROUND_TYPES,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "python_flint": importlib.util.find_spec("flint") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(root),
        "source_sha256": _source_sha256(root),
    }


def mismatches(a: dict, b: dict) -> list:
    """Names of the environment fields on which two records differ."""
    keys = (set(a) | set(b)) - set(CODE_FIELDS)
    return sorted(k for k in keys if a.get(k) != b.get(k))
