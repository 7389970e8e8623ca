"""The result store, as the layers above the simulator import it.

:class:`ResultStore` and :func:`open_store` live in
:mod:`repro.simulator.cache`, beside :func:`~repro.simulator.cache.run_key`,
so the batch runner can open the store without importing the service.
"""

from repro.simulator.cache import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    open_store,
    store_root,
)

__all__ = ["STORE_SCHEMA_VERSION", "ResultStore", "open_store", "store_root"]
