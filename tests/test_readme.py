"""The README's library example runs and reaches the reference answer."""

import re
from pathlib import Path

from stiffbvp import troesch_endpoints

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
