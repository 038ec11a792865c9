"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["est"].shape == namespace["se"].shape == (len(namespace["pts"]),)
    assert namespace["err"] < 1e-3
    assert capsys.readouterr().out.startswith("L2 error ")
