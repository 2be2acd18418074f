"""README's "Library quick start" block runs as written, and every line
whose trailing comment opens with a quoted value evaluates to it."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    section = README.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start():
    block = quick_start_block()
    namespace = {}
    exec(compile(block, "README quick start", "exec"), namespace)
    checked = 0
    for line in block.splitlines():
        m = re.match(r"(.+?)\s+#\s*('[^']*')", line)
        if m:
            assert eval(m.group(1), namespace) == ast.literal_eval(m.group(2)), line
            checked += 1
    assert checked, "no line of the block states its value"
