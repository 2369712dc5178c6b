"""`scripts/bench_scan.py`, the writer of the BENCH_<topic>.json files, run
as a script on this checkout: its `defence` set must find the defence tables
that the committed BENCH_defence.json records."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_defence_set_matches_the_committed_run(tmp_path):
    out = tmp_path / "BENCH_defence.json"
    subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "bench_scan.py"),
            "check",
            str(ROOT / "src"),
            str(out),
            "defence",
        ],
        check=True,
    )
    written = json.loads(out.read_text())["runs"]["check"]["defence"]
    committed = json.loads((ROOT / "BENCH_defence.json").read_text())
    committed = committed["runs"]["change"]["defence"]
    assert written.keys() == committed.keys()
    for size, row in committed.items():
        # everything but the wall-clock times carries over between machines
        del row["scan_ms"], written[size]["scan_ms"]
        assert written[size] == row, size
