"""Artifact cache: versioned keys, unreadable files, per-writer tmp files."""
import os

import numpy as np
import pytest

from stablewalk import cache, killed_walk


def test_key_carries_dp_version(monkeypatch):
    key = cache.content_key("law", "dp_slice", x=3, n=256)
    assert cache.content_key("law", "dp_slice", x=3, n=256) == key
    monkeypatch.setattr(killed_walk, "DP_VERSION", killed_walk.DP_VERSION + 1)
    assert cache.content_key("law", "dp_slice", x=3, n=256) != key


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
