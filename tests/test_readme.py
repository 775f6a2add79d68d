"""The README's quick start runs as written, and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start():
    text = README.read_text()
    section = text[text.index("## Quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs(capsys):
    code = quick_start()
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # a top-level print's comment starts with the line it prints
    promised = [m.group(1).rstrip(",")
                for m in re.finditer(r"^print\(.*\)\s+# (\S+)", code, re.M)]
    assert promised and all(want in printed for want in promised), (promised, printed)
