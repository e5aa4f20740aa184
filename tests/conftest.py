"""Tier-1 test harness hooks.

With ``REPRO_SANITIZE=1`` in the environment, every
:func:`repro.runtime.program.run_spmd` call made by a test registers
its cluster for destructive teardown; this autouse fixture drains the
registry after each test and asserts the job leaks nothing — no bound
sockets, no residual group memberships (host, NIC, or switch ledgers),
no undrained events.  See :mod:`repro.runtime.sanitize`.

Without the variable the fixture only drains the (empty) registry, so
plain ``pytest`` runs are unaffected.

The auto policy's decision memo is process-wide; it is dropped before
every test so ``policy.cache_info()`` counts never depend on test
order.

``paper_figures_doc`` runs the ``paper-figures`` area once per session
for the two modules that read it (its figure tests and the gate
document parity test); a test that mutates it works on a deep copy.
"""

import pytest

from repro.mpi.collective import policy
from repro.runtime.sanitize import (drain_pending, full_teardown,
                                    sanitize_enabled)


@pytest.fixture(scope="session")
def paper_figures_doc():
    from repro.bench.sweep import run_area

    return run_area("paper-figures", workers=1)  # check=True: figures hold


@pytest.fixture(autouse=True)
def _sanitize_teardown():
    drain_pending()        # never inherit another test's leftovers
    policy.clear_caches()
    yield
    runs = drain_pending()
    if not sanitize_enabled():
        return
    for cluster, world in runs:
        full_teardown(cluster, world)
