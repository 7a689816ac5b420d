"""Reproducibility plumbing: seeds and streams, fingerprints, atomic writes.

Every run hangs off one master seed. Sub-stages never consume the master
directly; they derive their own seed from (master, stage label, index) via
sha256 so that any stage can be re-run in isolation and so that adding a stage
never shifts the randomness of its neighbours. Every random stream is
seeded(derived seed, tag): the one place that builds a numpy Generator.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any

import numpy as np


def derive_seed(master: int, *parts: object) -> int:
    """Derive a child seed from the master seed and a label path.

    Stable across platforms and Python processes (no salted hash()).
    Returns a non-negative int that fits in 63 bits.
    """
    text = str(int(master)) + "".join("|" + str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def seeded(seed: int, tag: int) -> np.random.Generator:
    """The Generator of (seed folded to 63 bits, tag): one stream per tag."""
    return np.random.default_rng([int(seed) & 0x7FFFFFFFFFFFFFFF, int(tag)])


def canonical_json(obj: Any) -> str:
    """Deterministic JSON rendering: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _jsonable(v):
    """numpy scalars and arrays, tuples and dict keys made JSON-native."""
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def fingerprint(obj: Any) -> str:
    """sha256 hex digest of the canonical JSON rendering of obj."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def fingerprint_arrays(*arrays: np.ndarray, extra: str = "") -> str:
    """sha256 over raw array bytes plus an optional context string. A
    C-contiguous array is hashed from its own buffer, without a copy."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.data)
    h.update(extra.encode("utf-8"))
    return h.hexdigest()


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory + rename.

    A crash mid-write leaves either the old file or nothing, never a torn file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
