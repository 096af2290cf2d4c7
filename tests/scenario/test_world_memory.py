"""Memory ceiling of the simulated world.

``build_world`` holds every zone, provider, registry delegation and
auxiliary store a run reads, and it lives to the end of the run, so its
bytes sit under every later peak.  The world holds each fact once: one
passive-DNS index, one label tuple per lowercase name, tuple RRsets and
one zone map per server.  This gate fails when a change stores a world
fact twice again.

Measured in a fresh interpreter: names are interned process-wide, so a
world built after other tests would reuse their names and read low.
"""

import subprocess
import sys

import pytest

_SCRIPT = """
import gc
import sys
import tracemalloc

from repro.scenario import ScenarioConfig, build_world, small_config

config = small_config(7) if sys.argv[1] == "small" else ScenarioConfig(seed=7)
gc.collect()
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
world = build_world(config)
gc.collect()
print(tracemalloc.get_traced_memory()[0] - before)
"""

#: ``tracemalloc`` bytes a seed-7 ``build_world`` retains, plus 15 %
CEILINGS = {
    "small": 1.89 * 1.15 * 2**20,
    "default": 4.77 * 1.15 * 2**20,
}


@pytest.mark.slow
@pytest.mark.parametrize("scale", sorted(CEILINGS))
def test_world_retained_bytes_stay_under_their_ceilings(scale):
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, scale],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    retained = int(result.stdout)
    assert retained <= CEILINGS[scale], (
        f"{scale} world retains {retained / 2**20:.2f} MiB, over its "
        f"{CEILINGS[scale] / 2**20:.2f} MiB ceiling"
    )
