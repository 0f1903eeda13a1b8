"""The benchmark's quick check, run against the library in ``src/``.

``perfbench/`` imports and patches library names by attribute, so a
change that deletes or renames one of them fails here, not first in a
benchmark run. The check writes only under the git-ignored
``perfbench/results/`` and ``perfbench/work/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_quick_check_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "quick_check.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
