"""tools/bitwise_probe.py stays runnable: its smoke mode digests a few
items of every family.  tools/linetrace.py's collector finds the
statements a call skips."""

import importlib.util
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
        "singular-jordan", "near-commuting", "singular-sdc", "raw-congruence", "blocks", "qcqp",
        "box", "rsdc-n80", "non-finite", "pivot",
    }
    for key, value in digests.items():
        if key.startswith("non-finite/"):
            assert value == "NonFiniteEntry: matrix has a non-finite entry"
        elif key.startswith(("rsdc-n80/", "box/")):
            assert len(value) == 64  # a digest, not an error


def test_linetrace_collects_the_statements_a_call_skips(tmp_path):
    # the collector alone, on a tiny module: tier-1 is not run again here
    sys.path.insert(0, str(REPO / "tools"))
    try:
        import linetrace
    finally:
        sys.path.remove(str(REPO / "tools"))
    module = tmp_path / "tiny.py"
    module.write_text(
        'def sign(x):\n'
        '    """Docstrings and signatures are not statements."""\n'
        '    if x >= 0:\n'
        '        return 1\n'
        '    raise ValueError(\n'
        '        "negative")\n'
        '\n'
        '\n'
        'def clip(x):\n'
        '    if x > 1:\n'
        '        return None\n'
        '    if x < 0:\n'
        '        return None\n'
        '    return x\n'
        '\n'
        '\n'
        'class Box:\n'
        '    size = 1\n'
        '\n'
        '    def grow(self):\n'
        '        def twice(n):\n'
        '            return 2 * n\n'
        '        return twice(self.size)\n'
    )
    spec = importlib.util.spec_from_file_location("tiny", module)
    tiny = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tiny)
    assert linetrace.statements(module) == {
        3: ("sign", "if x >= 0:"),
        4: ("sign", "return 1"),
        5: ("sign", "raise ValueError('negative')"),
        10: ("clip", "if x > 1:"),
        11: ("clip", "return None"),
        12: ("clip", "if x < 0:"),
        13: ("clip", "return None #2"),
        14: ("clip", "return x"),
        21: ("Box.grow", "def twice"),
        22: ("Box.grow.twice", "return 2 * n"),
        23: ("Box.grow", "return twice(self.size)"),
    }
    hits = linetrace.trace(lambda: (tiny.sign(2), tiny.clip(2), tiny.Box().grow()), tmp_path)
    assert linetrace.unreached([module], hits) == [
        ("tiny.py", 5, "sign", "raise ValueError('negative')"),
        ("tiny.py", 12, "clip", "if x < 0:"),
        ("tiny.py", 13, "clip", "return None #2"),
        ("tiny.py", 14, "clip", "return x"),
    ]
