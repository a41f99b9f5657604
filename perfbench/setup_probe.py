"""Set-up as `mdalbench run` does it, up to the point the first AL run can begin.

Usage: python3 setup_probe.py CONFIG_JSON

Imports the package through its CLI module, validates the config, builds the
pools with `engine.prepare_pools`, then prints "ready" and waits for stdin to
close, so the parent's clock stops at readiness, not at interpreter exit.
"""

import json
import sys

from mdalbench import cli, engine

with open(sys.argv[1], encoding="utf-8") as fh:
    config = cli.ExperimentConfig.from_dict(json.load(fh))
engine.prepare_pools(config)
print("ready", flush=True)
sys.stdin.read()
