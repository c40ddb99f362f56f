"""Time what a user waits for before the first trial, in a fresh interpreter.

Usage: python3 setup_child.py SRC_DIR CONFIG_JSON

Prints one JSON object: ``import_s`` (``import mixerlab.cli``) and
``setup_s`` (import, config load, ``instance_from_config`` and, for ``qma``,
``build_qma_witness``). Per-trial construction is not set-up.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mixerlab.cli  # noqa: E402

t_import = time.perf_counter()
import json  # noqa: E402

from mixerlab.instances import instance_from_config  # noqa: E402
from mixerlab.protocols import build_qma_witness  # noqa: E402

with open(sys.argv[2]) as fh:
    config = json.load(fh)
if "instance" in config:
    bundle = instance_from_config(config["instance"])
    if config["experiment"] == "qma":
        build_qma_witness(bundle.truth, config["params"]["k1"], config["params"]["k2"])
t_setup = time.perf_counter()
print(json.dumps({"import_s": t_import - t0, "setup_s": t_setup - t0, "module": mixerlab.cli.__file__}))
