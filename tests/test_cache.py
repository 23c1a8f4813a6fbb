"""Artifact cache: keys by the code that computed them, unreadable files, per-writer tmp files."""
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy

from stablewalk import cache


def test_code_digest_follows_the_sources_and_libraries(monkeypatch, tmp_path):
    """An edited or added module, or another scipy version, changes the code digest."""
    pkg = tmp_path / "stablewalk"
    shutil.copytree(Path(cache.__file__).parent, pkg, ignore=shutil.ignore_patterns("__pycache__"))
    real = cache._code_digest()

    def digest():
        cache._code_digest.cache_clear()
        return cache._code_digest()

    monkeypatch.setattr(cache, "__file__", str(pkg / "cache.py"))
    seen = [digest()]
    (pkg / "lanes.py").write_text((pkg / "lanes.py").read_text() + "\n")
    seen.append(digest())
    (pkg / "extra.py").write_text("")
    seen.append(digest())
    monkeypatch.setattr(scipy, "__version__", scipy.__version__ + ".post1")
    seen.append(digest())
    monkeypatch.undo()
    assert seen[0] == real  # same names and bytes, same digest
    assert len(set(seen)) == 4
    assert digest() == real


def test_key_carries_the_code_digest(monkeypatch, tmp_path):
    """Another source digest gives another key, so an artifact stored by other code is a miss."""
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path))
    key = cache.content_key("law", "dp_slice", x=3, n=256)
    assert cache.content_key("law", "dp_slice", x=3, n=256) == key
    cache.store(key, f=np.ones(8))
    with monkeypatch.context() as m:
        m.setattr(cache, "_code_digest", lambda: "edited source")
        other = cache.content_key("law", "dp_slice", x=3, n=256)
    assert other != key
    assert cache.load(other) is None
    assert np.array_equal(cache.load(key)["f"], np.ones(8))


def test_truncated_artifact_is_a_miss(monkeypatch, tmp_path):
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path))
    key = cache.content_key("law", "dp_slice", x=3)
    vals = np.linspace(0.0, 1.0, 4096)
    cache.store(key, f=vals)
    assert np.array_equal(cache.load(key)["f"], vals)
    path = tmp_path / f"{key}.npz"
    data = path.read_bytes()
    for cut in range(0, len(data), 97):
        path.write_bytes(data[:cut])
        with pytest.warns(UserWarning, match="treated as a miss"):
            assert cache.load(key) is None


def test_writers_use_distinct_tmp_files(monkeypatch, tmp_path):
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path))
    key = cache.content_key("law", "dp_slice", x=3)
    renamed = []
    real_replace = os.replace

    def replace(src, dst):
        renamed.append(str(src))
        real_replace(src, dst)

    monkeypatch.setattr(cache.os, "replace", replace)
    cache.store(key, f=np.ones(8))
    cache.store(key, f=np.zeros(8))
    assert len(set(renamed)) == 2
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.npz"]
    assert np.array_equal(cache.load(key)["f"], np.zeros(8))
