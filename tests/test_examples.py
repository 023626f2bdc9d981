"""The example scripts run to completion.

Each example builds its own platform or desktop cluster the way a user
would, so running them end to end keeps the documented entry points in
step with the builders.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
EXAMPLES = ("quickstart", "out_of_core_lu", "idle_harvesting",
            "association_mining")


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_exits_cleanly(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", f"{name}.py")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
