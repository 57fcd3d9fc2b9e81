import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    """The README's "Library use" block runs as documented, so the library
    API it shows cannot drift out of date unnoticed."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} (Library use)", "exec"), {})
    assert "acc (All)" in capsys.readouterr().out
