import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_quick_start_runs():
    # every name the quick start imports must still exist, and its asserts hold
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
