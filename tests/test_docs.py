import re
from pathlib import Path

import sdfs_jcm
from sdfs_jcm.config import KNOWN_KEYS, OUTPUTS, RunConfig, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    q, c, w = namespace["q"], namespace["c"], namespace["w"]
    assert c.shape == (2000, q.dim + 1)
    assert w.shape == (2000,)
    assert namespace["entropy"].shape == namespace["data"].ts.shape


def test_package_exports_what_the_library_example_imports():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    (names,) = re.findall(r"from sdfs_jcm import \((.*?)\)", block, flags=re.DOTALL)
    assert sdfs_jcm.__all__ == [name.strip() for name in names.split(",")]


def _documented_config() -> list[tuple[str, str]]:
    """(key, default text) of each key in the README's configuration block."""
    text = README.read_text()
    section = text[text.index("### Configuration format") :]
    block = re.search(r"```\n(.*?)```", section, flags=re.DOTALL).group(1)
    uncommented = "\n".join(line.split("#")[0] for line in block.splitlines())
    return re.findall(r"(\w+) = *(\S*)", uncommented)


def test_readme_documents_exactly_the_config_keys():
    documented = [key for key, _ in _documented_config()]
    assert sorted(documented) == sorted(KNOWN_KEYS)


def test_readme_documents_the_config_defaults():
    documented = _documented_config()
    # q_time_scaled has no value of its own: it defaults to t_max_scaled
    assert [key for key, text in documented if not text] == ["q_time_scaled"]
    doc = "\n".join(f"{key} = {text}" for key, text in documented if text)
    assert parse_config(doc) == RunConfig()


def test_readme_documents_exactly_the_outputs():
    text = README.read_text()
    section = text[text.index("### Outputs") :]
    block = re.search(r"```\n(.*?)```", section, flags=re.DOTALL).group(1)
    documented = [tuple(line.split()) for line in block.splitlines()]
    assert documented == [(f"{name}.csv", header) for name, (header, _) in OUTPUTS.items()]
