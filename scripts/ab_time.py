"""Usage: python scripts/ab_time.py BASE [--workload presets|check|sweep|all] [--pairs N]

Times the working tree against BASE's src/ (by `git archive`, as
scripts/same_bytes.py takes it) on the workloads of perfbench/workloads.py.
Both trees run from copies in sibling temporary directories: run in place,
HEAD read slower than its own copy in 14 to 18 of 20 pairs. Each pair
starts a fresh worker per tree, with sys.path[0] set to that tree's src/,
so a process that is slow for its whole life weighs on one pair only. A
worker runs passes of a workload's items through perfbench/run.py's
`run_pass`, which times a pass as the benchmark does and checks each
item's outputs: a warm-up pass, then a timed one. No two passes overlap,
and the first timed pass alternates from pair to pair.

For wall time and `time.process_time` it reports each tree's median, the
median paired difference (working tree minus BASE) with its sign-test
interval at 1 - ALPHA (null below 8 pairs, where none reaches it), the
pairs the working tree won, the two-sided sign-test p, whether p < ALPHA,
the interquartile range of BASE's passes, whether the working tree claims a
gain (it won at least 9 of 10 pairs and its median lies below BASE's by more
than that range) and each tree's failed items. It prints one JSON line and
exits 0: it gates nothing. The two passes of a pair share the machine's
load, so the paired difference resolves what the spread of the
benchmark's medians hides."""

import argparse
import json
import math
import statistics
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from same_bytes import REPO, extract_src, load_workloads

WORKLOADS = ("presets", "check", "sweep")
SEED = 0  # of the sweep configs
ALPHA = 0.01
BENCH = REPO / "perfbench"
# One tree's worker: argv[1] is its src/, argv[2] perfbench/. Each stdin line is a
# JSON [workload, items], one pass; it answers [wall s, process s, failed items].
CHILD = """
import json, os, sys
from pathlib import Path
sys.path[0:1] = sys.argv[1:3]
import run, sdfs_jcm.cli
if sdfs_jcm.__file__ != os.path.join(sys.argv[1], "sdfs_jcm", "__init__.py"):
    sys.exit(f"imported {sdfs_jcm.__file__}, not the tree {sys.argv[1]}")
for line in sys.stdin:
    done = run.run_pass(sdfs_jcm.cli, *json.loads(line), Path("out"))
    failed = sum(bool(item["problems"]) for item in done["items"])
    print(json.dumps([done["wall_s"], done["cpu_s"], failed]), flush=True)
"""


def paired(base: list[float], head: list[float]) -> dict:
    """The statistics of the module docstring for one metric."""
    diffs = sorted(h - b for b, h in zip(base, head))
    n, wins, losses = len(diffs), sum(d < 0 for d in diffs), sum(d > 0 for d in diffs)

    def below(k: int, m: int) -> float:  # P(Binomial(m, 1/2) <= k)
        return sum(math.comb(m, j) for j in range(k + 1)) / 2**m

    p = min(1.0, 2.0 * below(min(wins, losses), wins + losses))
    q1, _, q3 = statistics.quantiles(base, method="inclusive") if n > 1 else base * 3
    medians = statistics.median(base), statistics.median(head)
    # [d_(k), d_(n+1-k)] holds the median with probability 1 - 2 P(B(n) <= k - 1)
    ks = [k for k in range(1, n // 2 + 1) if 2.0 * below(k - 1, n) <= ALPHA]
    return {"base": medians[0], "head": medians[1], "diff": statistics.median(diffs),
            "interval": [diffs[ks[-1] - 1], diffs[n - ks[-1]]] if ks else None,
            "faster": wins, "pairs": n, "p": p, "resolved": p < ALPHA, "base_iqr": q3 - q1,
            "claim": 10 * wins >= 9 * n and medians[0] - medians[1] > q3 - q1}


def measure(trees: list[Path], workloads: list[str], pairs: int, root: Path) -> dict:
    """Time the workloads on trees = [BASE src, working src], with the
    configs in root and each worker's outputs beside its src/."""
    report, make_items = {}, load_workloads().make_items
    for workload in workloads:
        items = make_items(workload, SEED, root / "cfg" / workload, Path("out"))
        command = json.dumps([workload, items]) + "\n"
        times: list[list] = [[], []]
        for i in range(pairs):
            procs = [subprocess.Popen([sys.executable, "-c", CHILD, str(src.resolve()), str(BENCH)],
                                      cwd=src.parent, stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
                     for src in trees]
            try:
                for k in (0, 1, *((0, 1) if i % 2 == 0 else (1, 0))):  # warm-ups, then the pair
                    procs[k].stdin.write(command)
                    procs[k].stdin.flush()
                    answer = procs[k].stdout.readline()
                    if not answer:
                        raise RuntimeError(f"the {('base', 'head')[k]} worker stopped")
                    times[k].append(json.loads(answer))
            finally:
                for proc in procs:
                    proc.stdin.close()
                    proc.wait()
        base, head = (list(zip(*tree[1::2])) for tree in times)  # the timed passes
        report[workload] = {"wall_s": paired(base[0], head[0]),
                            "process_s": paired(base[1], head[1]),
                            "failed": [sum(base[2]), sum(head[2])]}
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description="Paired timing of BASE and the working tree.")
    parser.add_argument("base", help="a commit")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        trees = [Path(tmp, "base", "src"), Path(tmp, "head", "src")]
        trees[0].parent.mkdir()
        sha = extract_src(args.base, trees[0].parent)
        shutil.copytree(REPO / "src", trees[1], ignore=shutil.ignore_patterns("__pycache__"))
        report = measure(trees, workloads, args.pairs, Path(tmp))
    print(json.dumps({"base": sha, "pairs": args.pairs, "workloads": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
