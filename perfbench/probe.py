"""Set-up probe: import morreylab and load a config, then exit at once.

Run as a child process:

    python3 perfbench/probe.py CONFIG

The harness times this process from spawn to exit as one sample of `setup_s`:
what every CLI run pays before its first computation.  The probe prints the
path morreylab was imported from, so the harness can check that it measured
the checkout's own source tree.
"""

import json
import os
import sys
from pathlib import Path

import morreylab.cli as cli

cli.load_config(json.loads(Path(sys.argv[1]).read_text()))
print(cli.__file__, flush=True)
os._exit(0)
