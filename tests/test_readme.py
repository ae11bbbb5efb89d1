"""The README's Python quick start runs as written and reconstructs its signal."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    np, x0 = namespace["np"], namespace["x0"]
    assert np.linalg.norm(namespace["direct"] - x0) <= 1e-10
    assert np.linalg.norm(namespace["chain"].signal - x0) <= 1e-10
    assert namespace["chain"].depth == 4
    lo, hi = namespace["lo"], namespace["hi"]
    assert 0 < lo <= hi
