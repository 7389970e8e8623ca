"""Keep the test run off the checkout's committed result store.

Without ``REPRO_CACHE_DIR`` the default store is ``.repro-results/store``
in the checkout, and even a lookup there writes its LRU columns. Every
test therefore starts from a throwaway cache directory; tests that need
their own root still set ``REPRO_CACHE_DIR`` or ``REPRO_STORE``.
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
