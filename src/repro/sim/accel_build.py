"""On-demand build/load of the ``_accelcore`` C extension.

The accel engine backend (:mod:`repro.sim.engine_accel`) is the default
wherever it builds, but never a hard dependency: this module compiles
``_accelcore.c`` with the host C compiler the first time it is needed, and
degrades to ``None`` — the backend selector then falls back to the pure
engine — when no toolchain is available.  No third-party packaging machinery
is involved: a CPython extension on this platform is one
position-independent shared object compiled against the interpreter
headers, so a direct compiler invocation is both sufficient and far more
robust than driving setuptools programmatically inside an application.

The built object lands next to the source as
``_accelcore-<digest><EXT_SUFFIX>`` (git-ignored), where ``<digest>`` hashes
the source and ``EXT_SUFFIX``: one build serves every later run of the same
source and interpreter ABI, and an edited source gets a new name instead of
an mtime comparison.  Every process that imports the package may be the
first, so several can build at once (process pools, worker agents): each
compiles to its own temporary file and ``os.replace``-s it into place, so no
process ever loads a half-written object.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional

_SIM_DIR = Path(__file__).resolve().parent
_SOURCE = _SIM_DIR / "_accelcore.c"

#: Human-readable reason the last :func:`load` returned ``None`` (surfaced
#: as ``engine_accel.unavailable_reason`` and in the CI skip annotation).
last_error: Optional[str] = None


def _compiler() -> Optional[str]:
    cc_var = sysconfig.get_config_var("CC") or ""
    for candidate in ([cc_var.split()[0]] if cc_var else []) + ["cc", "gcc", "clang"]:
        if shutil.which(candidate):
            return candidate
    return None


def build(force: bool = False) -> Optional[Path]:
    """Compile the extension if needed; return the shared object path.

    Returns ``None`` (and records :data:`last_error`) when the source is
    missing, no C compiler exists, or the compile fails — callers fall back
    to the pure-Python engine.
    """
    global last_error
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        last_error = f"source not found: {_SOURCE}"
        return None
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    digest = hashlib.sha256(source + suffix.encode()).hexdigest()[:16]
    target = _SIM_DIR / f"_accelcore-{digest}{suffix}"
    if not force and target.exists():
        return target
    cc = _compiler()
    if cc is None:
        last_error = "no C compiler (cc/gcc/clang) on PATH"
        return None
    include_dir = sysconfig.get_paths()["include"]
    try:
        handle, partial = tempfile.mkstemp(prefix=".accelcore-build-", dir=_SIM_DIR)
    except OSError as exc:
        last_error = f"cannot write next to {_SOURCE}: {exc}"
        return None
    os.close(handle)
    cmd = [cc, "-O2", "-fPIC", "-shared", f"-I{include_dir}", str(_SOURCE), "-o", partial]
    try:
        result = subprocess.run(cmd, capture_output=True, text=True)
        if result.returncode != 0:
            last_error = (
                f"compile failed ({' '.join(cmd)}):\n{result.stderr.strip()[-2000:]}"
            )
            return None
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    # Builds of earlier sources (and the pre-digest name) are stale for good.
    for stale in _SIM_DIR.glob(f"_accelcore*{suffix}"):
        if stale != target:
            try:
                stale.unlink()
            except OSError:
                pass
    last_error = None
    return target


def load():
    """Build (if needed) and import ``_accelcore``; ``None`` on any failure."""
    global last_error
    target = build()
    if target is None:
        return None
    try:
        spec = importlib.util.spec_from_file_location("repro.sim._accelcore", target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception as exc:  # pragma: no cover - ABI mismatch, corrupt .so
        last_error = f"import of built extension failed: {exc!r}"
        return None
    last_error = None
    return module
