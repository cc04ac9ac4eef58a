"""Build and load the compiled line scanner (``scan.c``).

The C file is compiled once per machine with the system ``cc`` into
``$XDG_CACHE_HOME/logray`` (default ``~/.cache/logray``), named by the
sha256 of the source and committed with
:func:`~logray.state.manifest.publish` so that concurrent workers cannot
race, then loaded with ``ctypes``.  The handle
lives in this module, one per process, so parsers that hold only
:func:`program` arrays pickle into Ray tasks.  :func:`library` returns
``None`` when no compiler or cache dir is usable; the caller then runs the
numpy interpreter.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import sys

import numpy as np

from logray.formats import FieldType, LineFormat, StrStop
from logray.state.manifest import publish

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "scan.c")
_OPS = {FieldType.INT: 0, FieldType.DBL: 1, FieldType.CHR: 2, FieldType.WS: 6,
        StrStop.NCHAR: 3, StrStop.DELIM: 4, StrStop.ANY_WS: 5}


@functools.cache
def library():
    """The scanner for this process, or ``None`` if it cannot be built."""
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "logray")
    try:
        with open(_SRC, "rb") as f:
            path = os.path.join(cache, f"scan-{hashlib.sha256(f.read()).hexdigest()}.so")
        if not os.path.exists(path):
            cc = ["cc", "-O2", "-shared", "-fPIC", "-o"]
            publish(path, lambda tmp: subprocess.run([*cc, tmp, _SRC], check=True, capture_output=True))
        lib = ctypes.CDLL(path)
    except (OSError, subprocess.SubprocessError):
        return None
    lib.logray_scan.restype = ctypes.c_int64
    lib.logray_scan.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64, ctypes.c_void_p,
                                                         ctypes.c_int32] + [ctypes.c_void_p] * 2
    return lib


def _target(ch: str) -> tuple[int, int]:
    """(bytes packed into an int32 in memory order, byte length) of one char."""
    b = ch.encode()
    return int.from_bytes(b.ljust(4, b"\0"), sys.byteorder, signed=True), len(b)


def program(fmt: LineFormat) -> np.ndarray:
    """``fmt``'s instructions as int32 rows ``(op, a, len, repeat, slot)``,
    the layout ``scan.c`` reads; slot k is ``fmt.named_fields()[k]``."""
    slots = {fmt._name_to_index[name]: k for k, (name, _f, _o) in enumerate(fmt.named_fields())}
    rows = []
    for i, f in enumerate(fmt.fields):
        a, n = 0, 0
        if f.ftype == FieldType.CHR:
            a, n = _target(f.target)
        elif f.ftype == FieldType.STR and f.stop == StrStop.DELIM:
            a, n = _target(f.delim)
        elif f.ftype == FieldType.STR and f.stop == StrStop.NCHAR:
            a = min(f.nchar, 2**31 - 1)
        op = _OPS[f.stop if f.ftype == FieldType.STR else f.ftype]
        rows.append((op, a, n, int(f.repeat), slots.get(i, -1)))
    return np.array(rows, np.int32).reshape(-1, 5)
