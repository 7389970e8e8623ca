"""Keep the test run off the checkout's committed result store.

Without ``REPRO_CACHE_DIR`` the default store is ``.repro-results/store``
in the checkout. A lookup only reads it, but tests simulate and write
new cells, and a committed hit would mask a simulation a test means to
run. Every test therefore starts from a throwaway cache directory; tests
that need their own root still set ``REPRO_CACHE_DIR`` or
``REPRO_STORE``.
"""

import os
import shutil
import tempfile

import pytest

_CACHE = tempfile.mkdtemp(prefix="repro-tests-")
os.environ["REPRO_CACHE_DIR"] = _CACHE


@pytest.fixture(autouse=True)
def unset_store_root(monkeypatch):
    # an empty REPRO_STORE means unset; monkeypatch also undoes the
    # export of ``repro ... --store`` once the test is over
    monkeypatch.setenv("REPRO_STORE", "")


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_CACHE, ignore_errors=True)


@pytest.fixture
def store_lookups(monkeypatch):
    """Every ``ResultStore.get`` from here on, as ``(key, hit)``."""
    from repro.simulator.cache import ResultStore

    calls = []
    get = ResultStore.get

    def counted(self, key):
        stats = get(self, key)
        calls.append((key, stats is not None))
        return stats

    monkeypatch.setattr(ResultStore, "get", counted)
    return calls
