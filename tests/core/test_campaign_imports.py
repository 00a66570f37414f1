"""What a campaign process imports.

``setup.py`` declares the library stdlib-only, and every campaign
process (the CLI, each fleet shard, triage) pays for what it imports at
cold start.  A fresh interpreter that runs in-process and loopback
campaigns imports neither ``asyncio`` nor ``ssl`` (the transport is
plain sockets) nor ``numpy`` (there is one pure-Python coverage map).
"""

import os
import subprocess
import sys

SRC_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                        "src"))

_IMPORT_PROBE = """
import sys
import repro
from repro.core import CampaignConfig, make_engine, run_campaign
from repro.net import NetConfig
from repro.protocols import get_target
for net in (None, NetConfig()):
    result = run_campaign("peach-star", get_target("iec104"), seed=1,
                          config=CampaignConfig(max_executions=60, net=net))
    assert result.executions == 60
# libiec61850 executions touch more than 128 edges, the journal length
# from which the retired vector maps ran their own kernels
spec = get_target("libiec61850")
config = CampaignConfig(max_executions=60)
engine = make_engine("peach", spec, 1, config)
run_campaign("peach", spec, seed=1, config=config, engine=engine)
assert max(seed.edges_touched for seed in engine.seed_pool.seeds) > 128
print(sorted(name for name in ("asyncio", "ssl", "numpy")
             if name in sys.modules))
"""


def test_campaigns_import_neither_asyncio_ssl_nor_numpy():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC_ROOT))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
