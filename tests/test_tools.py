"""tools/bitwise_probe.py stays runnable: its smoke mode digests a few
items of every family."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_bitwise_probe_smoke(tmp_path):
    out = tmp_path / "digests.json"
    subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(REPO / "tools" / "bitwise_probe.py"),
         str(REPO / "src"), str(out), "--smoke"],
        check=True, capture_output=True, timeout=60,
    )
    digests = json.loads(out.read_text())
    assert {key.split("/")[0] for key in digests} == {
        "small-families", "triple", "triple-case4", "triple-refused", "singular-complex",
        "singular-jordan", "blocks", "qcqp", "rsdc-n80", "non-finite", "pivot",
    }
    for key, value in digests.items():
        if key.startswith("non-finite/"):
            assert value == "NonFiniteEntry: matrix has a non-finite entry"
        elif key.startswith("rsdc-n80/"):
            assert len(value) == 64  # a digest, not an error
