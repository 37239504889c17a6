"""The counter registry behind ``--verbose`` and ``GET /stats``."""

from __future__ import annotations

import os
import subprocess
import sys

from repro import counters


def test_reset_zeroes_counters_but_not_gauges():
    entries = {"a": 1, "b": 2}
    group = counters.Counters(
        "counters-test", ("hits", "misses"), {"entries": lambda: len(entries)}
    )
    try:
        group.add("hits")
        group.add("misses", 3)
        assert group.snapshot() == {"hits": 1, "misses": 3, "entries": 2}
        group.reset()
        assert group.snapshot() == {"hits": 0, "misses": 0, "entries": 2}
        assert counters.snapshot()["counters-test"] == group.snapshot()
    finally:
        counters._GROUPS.pop("counters-test", None)


def test_the_cli_declares_every_group():
    # A fresh interpreter, so only what the CLI imports is declared.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    output = subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro.cli; from repro import counters;"
            "print(' '.join(sorted(counters.snapshot())))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert output == ["leases", "profiles", "queue", "results", "traces"]
