"""``scripts/output_digest.py --against``: one command compares two trees' outputs.

Each run digests the cycle-decide workload at seed 1 (400 CLI calls, about a
second per tree) here and in a child process.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digest.py"


def _against(directory) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), "--workload", "cycle-decide",
                           "--seeds", "1", "--against", str(directory)],
                          capture_output=True, text=True, timeout=300)


def test_a_tree_against_itself_differs_nowhere():
    run = _against(ROOT)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [f"0 of 400 lines differ (- {ROOT}, + this tree)"]


def test_a_changed_output_string_is_listed_line_by_line(tmp_path):
    shutil.copytree(ROOT / "src" / "psdcone", tmp_path / "src" / "psdcone",
                    ignore=shutil.ignore_patterns("__pycache__"))
    decide = tmp_path / "src" / "psdcone" / "decide.py"
    text = decide.read_text()
    assert '"reason": "not_psd"' in text
    decide.write_text(text.replace('"reason": "not_psd"', '"reason": "not psd"'))
    run = _against(tmp_path)
    assert run.returncode == 1, run.stderr
    *pairs, summary = run.stdout.splitlines()
    # only the not-PSD ops print a reason; each differing line comes as a -/+ pair
    assert pairs and len(pairs) % 2 == 0
    for old, new in zip(pairs[::2], pairs[1::2]):
        assert old.startswith("- 1 cycle-not_psd ") and new.startswith("+ 1 cycle-not_psd ")
        assert old.split()[1:5] == new.split()[1:5] and old[2:] != new[2:]
    assert summary == f"{len(pairs) // 2} of 400 lines differ (- {tmp_path}, + this tree)"
