import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    q, a, w = namespace["q"], namespace["a"], namespace["w"]
    assert a.shape == (2000, q.dim)
    assert w.shape == (2000,)
    assert namespace["entropy"].shape == namespace["data"].ts.shape
