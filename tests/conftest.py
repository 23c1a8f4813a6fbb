"""Shared fixtures: canonical laws per family, their contexts, a session-scoped DP cache."""
import os
import shutil
import tempfile

import pytest

from stablewalk import Family, TailSpec, build_walk_law
from stablewalk.asymptotics import LawContext


def pytest_configure(config):
    # a fresh artifact cache per session: DP runs are shared across the tests
    # of one session, and every session runs the DP of the code under test
    os.environ["STABLEWALK_CACHE"] = tempfile.mkdtemp(prefix="stablewalk_dp_")


def pytest_unconfigure(config):
    shutil.rmtree(os.environ.pop("STABLEWALK_CACHE"), ignore_errors=True)


_LAW_DEFS = {
    "sym12": ("two_sided_pareto", 1.2, 0.3, {}),
    "sym15": ("two_sided_pareto", 1.5, 0.5, {}),
    "sym18": ("two_sided_pareto", 1.8, 0.5, {}),
    "asym15": ("two_sided_pareto", 1.5, 0.4, {"q_plus": 0.7, "q_minus": 0.3}),
    "sp12": ("spectrally_positive", 1.2, 0.12, {}),
    "sp15": ("spectrally_positive", 1.5, 0.2, {}),
    "sp18": ("spectrally_positive", 1.8, 0.25, {}),
    "bp15": ("bounded_potential", 1.5, 0.25, {}),
    "lc15": ("left_continuous", 1.5, 0.2, {}),
    # small-B spectrally positive law: large a(x), crossover at desk-scale n
    "spx15": ("spectrally_positive", 1.5, 0.05, {}),
}

_BUILT = {}


def get_law(name: str):
    if name not in _BUILT:
        fam, alpha, B, extra = _LAW_DEFS[name]
        _BUILT[name] = build_walk_law(
            TailSpec(alpha=alpha, family=Family(fam), B=B, **extra)
        )
    return _BUILT[name]


_CONTEXTS = {}


def get_ctx(name: str) -> LawContext:
    """One LawContext per canonical law for the session: its a(x) table and DP memo are shared."""
    if name not in _CONTEXTS:
        _CONTEXTS[name] = LawContext.build(get_law(name))
    return _CONTEXTS[name]


@pytest.fixture(scope="session")
def sym15():
    return get_law("sym15")


@pytest.fixture(scope="session")
def sym12():
    return get_law("sym12")


@pytest.fixture(scope="session")
def sym18():
    return get_law("sym18")


@pytest.fixture(scope="session")
def asym15():
    return get_law("asym15")


@pytest.fixture(scope="session")
def sp15():
    return get_law("sp15")


@pytest.fixture(scope="session")
def sp12():
    return get_law("sp12")


@pytest.fixture(scope="session")
def sp18():
    return get_law("sp18")


@pytest.fixture(scope="session")
def bp15():
    return get_law("bp15")


@pytest.fixture(scope="session")
def lc15():
    return get_law("lc15")
