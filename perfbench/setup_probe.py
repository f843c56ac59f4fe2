"""Set-up probe: one fresh interpreter doing a library workload's set-up.

``perfbench/run.py`` times this script from start to its ``ready`` line
to measure ``setup_s``.  Usage: ``python3 perfbench/setup_probe.py
<workload>``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pb.common import require_program  # noqa: E402

require_program()

from pb.library import setup  # noqa: E402

setup(sys.argv[1])
print("ready", flush=True)
