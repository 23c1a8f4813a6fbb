"""Hash-addressed on-disk cache for kernel artifacts.

Keys are content hashes of (code digest, law hash, operation, parameters);
values are npz archives.  Reruns with equal keys return byte-identical arrays,
which is what makes report regeneration reproducible.  The code digest covers
the package's own source files and the numpy and scipy versions, so an edit to
any module or a library upgrade retires every artifact the old code stored.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import uuid
import warnings
from pathlib import Path

import numpy as np
import scipy

_ENV = "STABLEWALK_CACHE"


def cache_dir() -> Path | None:
    root = os.environ.get(_ENV)
    if not root:
        return None
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


@functools.cache
def _code_digest() -> str:
    """SHA-256 of the package's *.py files (name and bytes) and the numpy and scipy versions."""
    h = hashlib.sha256(f"numpy {np.__version__} scipy {scipy.__version__}".encode())
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def content_key(law_hash: str, op: str, **params) -> str:
    payload = json.dumps(
        {"code": _code_digest(), "law": law_hash, "op": op, "params": params},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def load(key: str, shapes: dict | None = None) -> dict | None:
    """The arrays stored under key, or None on a miss.

    A miss is an absent or unreadable file or, where shapes (array name ->
    shape) is given, an array that is absent, of another shape or not finite.
    """
    root = cache_dir()
    if root is None:
        return None
    path = root / f"{key}.npz"
    if not path.exists():
        return None
    try:
        # np.load(path) leaks its handle when the archive fails to parse; this one closes either way
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            arrays = {k: z[k] for k in z.files}
    except Exception as exc:  # a damaged npz fails in many different ways; each means recompute
        warnings.warn(f"unreadable cache artifact {path.name} treated as a miss: {exc!r}", stacklevel=2)
        return None
    bad = [k for k, shape in (shapes or {}).items()
           if k not in arrays or arrays[k].shape != shape or not np.isfinite(arrays[k]).all()]
    if bad:
        warnings.warn(f"cache artifact {path.name} with malformed {bad} treated as a miss", stacklevel=2)
        return None
    return arrays


def store(key: str, **arrays) -> None:
    root = cache_dir()
    if root is None:
        return
    # each writer gets its own tmp file; the rename makes the entry appear whole
    tmp = root / f"{key}.{uuid.uuid4().hex}.tmp.npz"
    try:
        np.savez_compressed(tmp, **arrays)
        os.replace(tmp, root / f"{key}.npz")
    finally:
        tmp.unlink(missing_ok=True)
