"""`tools/valid_pass_memory.py` runs against this checkout's `bigphon`."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "valid_pass_memory.py"


def test_one_timed_valid_pass_prints_a_finite_loss():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--child", "valid", "time"],
                          capture_output=True, text=True, check=True)
    run = json.loads(proc.stdout)
    assert (run["pass"], run["kind"]) == ("valid", "time")
    assert math.isfinite(float(run["loss"])) and run["seconds"] > 0
    assert 0 <= run["src_pad_frac"] < 1 and 0 <= run["tgt_pad_frac"] < 1
