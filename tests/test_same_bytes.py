import importlib.util
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SUBSET = ("presets/fig1a", "sweep/seed0-cfg000", "check")


@pytest.fixture(scope="module")
def same_bytes():
    spec = importlib.util.spec_from_file_location("same_bytes", REPO / "scripts" / "same_bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def subset(same_bytes, tmp_path_factory):
    jobs = same_bytes.jobs(tmp_path_factory.mktemp("configs"))
    labels = [label for label, _ in jobs]
    assert len(labels) == len(set(labels)) == 15 + 80 + 3 + 1
    return [job for job in jobs if job[0] in SUBSET]


def test_the_working_tree_writes_the_same_bytes_as_itself(same_bytes, subset, tmp_path):
    # fig1a's CSV, the sweep config's two CSVs and the check stdout
    assert same_bytes.compare(REPO / "src", REPO / "src", subset, tmp_path) == (4, [])


def test_a_detuning_sign_flip_changes_the_detuned_csvs_only(same_bytes, subset, tmp_path):
    mutant = tmp_path / "src"
    shutil.copytree(REPO / "src", mutant, ignore=shutil.ignore_patterns("__pycache__"))
    dynamics = mutant / "sdfs_jcm" / "dynamics.py"
    text = dynamics.read_text()
    assert text.count("- 0.5j * detuning_ratio") == 1
    dynamics.write_text(text.replace("- 0.5j * detuning_ratio", "+ 0.5j * detuning_ratio"))
    # fig1a is resonant; no check line evolves a detuned state
    assert same_bytes.compare(mutant, REPO / "src", subset, tmp_path) == (
        4,
        ["sweep/seed0-cfg000/entropy.csv", "sweep/seed0-cfg000/inversion.csv"],
    )


@pytest.mark.parametrize("printed, fails", [("'same'", False), ("len(calls)", True)])
def test_a_check_that_prints_otherwise_on_a_later_call_fails(
    printed, fails, same_bytes, tmp_path, capfd
):
    # a stand-in tree whose `check` prints the same each call, or its call count
    package = tmp_path / "src" / "sdfs_jcm"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        f"calls = []\n\ndef main(argv):\n    calls.append(argv)\n    print({printed})\n    return 0\n"
    )
    jobs = [("check", ["check"])] * 3
    if not fails:
        assert same_bytes.compare(package.parent, package.parent, jobs, tmp_path) == (1, [])
        return
    with pytest.raises(RuntimeError, match="a job failed"):
        same_bytes.compare(package.parent, package.parent, jobs, tmp_path)
    assert "check: a later call printed other than the first" in capfd.readouterr().err
