import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

from pb.common import require_program  # noqa: E402

require_program()
