"""The README's library example and command lines run; the example reaches
the reference answer, and each command line writes its CSV."""

import re
import shlex
from pathlib import Path

from stiffbvp import troesch_endpoints
from stiffbvp.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["lam"] == 10
    u2_0 = namespace["sol"].mesh.U[0, 1]
    ref = troesch_endpoints(10.0)[0]
    assert abs(u2_0 - ref) / ref < 0.05


def _command_lines():
    """Every stiffbvp command of the README's sh blocks, continuation
    lines joined, as argument lists without the program name."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["stiffbvp"]:
                commands.append(words[1:])
    return commands


def test_readme_command_lines(tmp_path, capsys):
    commands = _command_lines()
    assert [words[0] for words in commands] == (
        ["solve", "srn", "errors"] + ["srn"] * 5 + ["errors"] * 3
        + ["deep"])
    for words in commands:
        out = words.index("--out") + 1
        words[out] = str(tmp_path / words[out])
        assert main(words) == 0, words
        assert Path(words[out]).is_file()
