"""The README's Python quick start runs as written, and its Tolerances table matches the code."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import gsis

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


def test_the_tolerances_table_lists_every_threshold_with_its_value():
    # every public *_REL and *_DRAWS constant a module of gsis assigns, not one it imports
    table = dict(re.findall(r"^\| `(\w+\.[A-Z_]+)` \| ([^|]+) \|", README.read_text(), re.M))
    owned = {}
    for info in pkgutil.iter_modules(gsis.__path__):
        module = importlib.import_module(f"gsis.{info.name}")
        for node in ast.parse(Path(module.__file__).read_text()).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z_]*_(REL|DRAWS)", target.id):
                        owned[f"{info.name}.{target.id}"] = getattr(module, target.id)
    assert owned and set(table) == set(owned)
    for name, value in owned.items():
        assert float(table[name]) == value, name
