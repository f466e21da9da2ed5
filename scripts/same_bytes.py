"""Usage: python scripts/same_bytes.py [BASE]     (BASE = HEAD by default)

Runs the 15 presets, the 80 sweep configs of perfbench/workloads.py (seeds 0, 1),
three qfunc configs, one `overlap` per pair of `selfcheck.random_overlap_pairs()` and
of OVERLAP_PAIRS, and then `check` CHECK_CALLS times through `cli.main` of BASE's
src/ (by `git archive`) and of the working tree, one process per tree. Every `check`
of a process must print the same stdout and exit code as its first: no state left by
earlier work may change a digit. Compares every output file, each run_summary.txt
without its `*_s` timer lines, and the `check` and `overlap` stdout and exit code,
byte for byte. Prints one JSON line; exits 1 if any file differs or any job fails."""

import argparse
import filecmp
import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
# Q windows other than fig5's [-8, 8]^2: half-widths 14.59, 11.22 and 8.66
QFUNC_STATES = {"squeezed": "r = 1.2\nm = 3",
                "detuned": "alpha0_re = -2\nalpha0_im = 2\nr = 0.9\nm = 2\ndetuning_ratio = 1.5",
                "rotated": "alpha0_re = 1.5\nalpha0_im = -1\nr = 0.8\nphi = 2\nm = 2"}
QFUNC_TIMES = "t_max_scaled = 12\nt_points = 2\nq_time_scaled = 7.5\nobservables = qfunc\n"
# Seed numbers m >= 2 DIM_CAP, whose ln m! `sdfs.log_factorial` evaluates one by one
OVERLAP_PAIRS = [("alpha0_re=1,m=1100", "alpha0_re=1.01,m=1100"),
                 ("alpha0_re=0.5,r=0.01,m=1024", "alpha0_re=0.5,r=0.011,m=1024")]
CHECK_CALLS = 20
# One tree's jobs, run in its output root: argv[1] is its src/, argv[2] the jobs.
CHILD = """
import contextlib, io, json, os, pathlib, sys
sys.path.insert(0, sys.argv[1])
import sdfs_jcm.cli
if sdfs_jcm.__file__ != os.path.join(sys.argv[1], "sdfs_jcm", "__init__.py"):
    sys.exit(f"imported {sdfs_jcm.__file__}, not the tree {sys.argv[1]}")
for label, argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = sdfs_jcm.cli.main(argv)
    if argv[0] in ("check", "overlap"):
        text, path = f"{stdout.getvalue()}exit {code}\\n", pathlib.Path(label + ".txt")
        if path.exists() and path.read_text() != text:
            sys.exit(f"{label}: a later call printed other than the first, in {sys.argv[1]}")
        path.write_text(text)
    elif code:
        sys.exit(f"{label}: exit {code} from {sdfs_jcm.__file__}")
"""


def jobs(cfg_dir: Path) -> list[tuple[str, list[str]]]:
    """(label, cli argv) of every job, writing its configs to cfg_dir; outputs go to label/."""
    spec = importlib.util.spec_from_file_location("workloads", REPO / "perfbench" / "workloads.py")
    spec.loader.exec_module(workloads := importlib.util.module_from_spec(spec))
    found = [(f"presets/{name}", ["preset", name, "--out", f"presets/{name}"])
             for name in workloads.PRESET_NAMES]
    configs = {}
    for seed in (0, 1):
        for i, state in enumerate(workloads.sweep_states(seed)):
            label = f"sweep/seed{seed}-cfg{i:03d}"
            configs[label] = workloads.sweep_config_text(state, Path(label))
    for name, state in QFUNC_STATES.items():
        configs[f"qfunc-{name}"] = f"{state}\n{QFUNC_TIMES}output_dir = qfunc-{name}\n"
    for i, (label, text) in enumerate(configs.items()):
        (cfg_dir / f"{i}.cfg").write_text(text)
        found.append((label, ["run", str(cfg_dir / f"{i}.cfg")]))
    for i, (p1, p2) in enumerate(overlap_pairs()):
        found.append((f"overlap-{i:02d}", ["overlap", "--p1", p1, "--p2", p2]))
    return found + [("check", ["check"])]


def overlap_pairs() -> list[tuple[str, str]]:
    """--p1 and --p2 of each `overlap` job: the pairs of the working tree's
    `selfcheck.random_overlap_pairs()` as %r values, then OVERLAP_PAIRS."""
    if str(REPO / "src") not in sys.path:
        sys.path.insert(0, str(REPO / "src"))
    from sdfs_jcm.selfcheck import random_overlap_pairs

    def items(p) -> str:
        values = dict(alpha0_re=p.alpha0.real, alpha0_im=p.alpha0.imag, r=p.r, phi=p.phi, m=p.m)
        return ",".join(f"{key}={value!r}" for key, value in values.items())

    return [(items(p1), items(p2)) for p1, p2 in random_overlap_pairs()] + OVERLAP_PAIRS


def same(a: Path, b: Path) -> bool:
    """Whether files a and b hold the same bytes; for run_summary.txt, the same
    lines but its timers, whose keys end in '_s'."""
    if a.name != "run_summary.txt":
        return filecmp.cmp(a, b, shallow=False)
    untimed = [[line for line in path.read_bytes().splitlines(keepends=True)
                if not line.split(b" = ")[0].endswith(b"_s")] for path in (a, b)]
    return untimed[0] == untimed[1]


def compare(base_src: Path, head_src: Path, jobs: list, root: Path) -> tuple[int, list[str]]:
    """Run jobs on both trees at once in root; (files compared, relative paths that differ)."""
    outs, procs = [root / "base", root / "head"], []
    for src, out in zip((base_src, head_src), outs):
        out.mkdir()
        child = [sys.executable, "-c", CHILD, str(src.resolve()), json.dumps(jobs)]
        procs.append(subprocess.Popen(child, cwd=out))
    if any([proc.wait() for proc in procs]):
        raise RuntimeError("a job failed; see its message above")
    files = [{path.relative_to(out).as_posix() for path in out.rglob("*") if path.is_file()}
             for out in outs]
    equal = {name for name in files[0] & files[1] if same(outs[0] / name, outs[1] / name)}
    return len(files[0] | files[1]), sorted((files[0] | files[1]) - equal)


def main() -> int:
    parser = argparse.ArgumentParser(description="Compare every output with that of BASE.")
    parser.add_argument("base", nargs="?", default="HEAD", help="a commit (default HEAD)")
    base = parser.parse_args().base + "^{commit}"
    sha = subprocess.check_output(["git", "rev-parse", "--verify", base], cwd=REPO, text=True)
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.check_output(["git", "archive", sha.strip(), "src"], cwd=REPO)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        repeats = [("check", ["check"])] * (CHECK_CALLS - 1)
        count, differ = compare(Path(tmp, "src"), REPO / "src", jobs(Path(tmp)) + repeats, Path(tmp))
    print(json.dumps({"base": sha.strip(), "files": count, "differ": differ}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
