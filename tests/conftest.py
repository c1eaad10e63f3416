import time

import pytest
from hypothesis import settings

from flmrac.simcli import load_config
from flmrac.simulator import run

# CI runs `pytest --hypothesis-profile=ci`: examples come from a fixed seed, not from
# the local example database, so a failure there replays from the seed alone.
settings.register_profile("ci", derandomize=True, database=None)

SEC8_NAMES = ("wingrock_standard", "wingrock_proposed", "wingrock_kappa_only",
              "wingrock_high_gain")


@pytest.fixture(scope="session")
def wingrock_proposed():
    scn, _ = load_config("wingrock_proposed")
    return scn


@pytest.fixture(scope="session")
def sec8_runs():
    """The four bundled noisy wing-rock runs under the shared seed.

    Expensive (20-30 s of setup on a 2-vCPU guest, the suite's largest
    single cost); shared between the projection-containment and
    qualitative-reproduction acceptance criteria.
    """
    out = {}
    t0 = time.time()
    for name in SEC8_NAMES:
        scn, _ = load_config(name)
        out[name] = (scn, run(scn))
    out["elapsed"] = time.time() - t0
    return out
