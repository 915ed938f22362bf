"""The Python blocks of README.md run as written."""

import pathlib
import re

from conftest import TELEPORT_LL

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    (tmp_path / "program.ll").write_text(TELEPORT_LL)
    monkeypatch.chdir(tmp_path)
    namespace = {"source": TELEPORT_LL}  # the program the custom-intrinsics block parses
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].shots == 1024
