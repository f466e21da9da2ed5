"""Benchmark of sdfs-jcm: three closed-loop workloads driven through the CLI.

    python3 perfbench/run.py --workload presets|check|sweep|all \\
        --seed N --seconds S --trace 0|1

The program is imported from `src/` of the checkout this file sits in and
driven only through `sdfs_jcm.cli.main([...])`, in this one process, with
its standard output captured. A pass runs every item of the workload once;
its outputs go to a temporary directory that is checked, hashed and deleted
after the pass.

--trace 0 runs whole passes for at most S seconds, but at least one, and
reports the end-to-end metrics: setup_s (median of three set-ups, each the
import of sdfs_jcm.cli plus generating the inputs: once here, twice in
fresh interpreters), pass_s and cpu_s (medians per pass), peak_rss_mb
(this process). failed_frac is printed too; the final JSON line carries
it as `failed` / `attempted`.

--trace 1 runs one untraced and one traced pass, then the fixed-size
kernels, and reports the per-layer metrics of the traced pass plus the
tracing overhead (traced minus untraced pass time). Spans are written to
.perfbench_runs/ when the run ends.

Each run writes .perfbench_runs/<workload>-s<seed>-t<trace>.json with the
environment, per-item times and results, and the sha256 of every CSV of
every pass. An item fails on a nonzero exit code, an exception, a failed
output check, or a CSV whose bytes differ from the first pass of the run.
The last line of standard output is one JSON object; the exit code is 0
only when every item of every pass is correct.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

WORKLOADS = ("presets", "check", "sweep")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_PROBES = 2

# Times `import sdfs_jcm.cli` plus input generation in a fresh interpreter.
_PROBE = """
import sys, time
from pathlib import Path
started = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import sdfs_jcm.cli
import workloads
workloads.make_items({workload!r}, {seed!r}, Path({work!r}), Path({out!r}))
print(time.perf_counter() - started)
"""

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


# ------------------------------------------------------------------ environment


def _blas_threads() -> dict:
    """OpenBLAS thread count of each OpenBLAS library loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30, check=False,
    )
    return done.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sdfs_jcm").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(load_at_start) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
            if key in os.environ
        },
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
    }


# ------------------------------------------------------------------------ setup


def _setup(workload: str, seed: int, run_dir: Path):
    """Import the program and build the inputs, timing it three ways."""
    started = time.perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import sdfs_jcm.cli as cli
    import workloads

    items = workloads.make_items(workload, seed, run_dir / "inputs", run_dir / "pass")
    samples = [time.perf_counter() - started]
    origin = Path(cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"imported sdfs_jcm from {origin}, not from {SRC}")
    for i in range(SETUP_PROBES):
        code = _PROBE.format(
            src=str(SRC), bench=str(BENCH_DIR), workload=workload, seed=seed,
            work=str(run_dir / f"probe{i}"), out=str(run_dir / "pass"),
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, check=False, cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return cli, items, samples


# ----------------------------------------------------------------------- passes


def run_pass(cli, workload: str, items, pass_dir: Path, tracer=None) -> dict:
    """Run every item once, then check, hash and delete the outputs."""
    import tracing
    import workloads

    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    records = []
    scope = tracing.instrument(tracer) if tracer is not None else contextlib.nullcontext()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    with scope:
        for label, argv in items:
            out, err = io.StringIO(), io.StringIO()
            started = time.perf_counter()
            error = None
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
            except Exception:  # an item that raises is a failed item, not a crash
                rc, error = None, traceback.format_exc()
            records.append(
                {"label": label, "wall_s": time.perf_counter() - started, "rc": rc,
                 "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}
            )
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    for rec in records:
        if rec["error"] is not None:
            rec["problems"] = ["raised " + rec["error"].strip().splitlines()[-1]]
        else:
            rec["problems"] = workloads.check_item(
                workload, rec["label"], rec["rc"], rec["stdout"], pass_dir / rec["label"]
            )
        del rec["stdout"]
    csvs = sorted(pass_dir.rglob("*.csv"))
    digests = {str(p.relative_to(pass_dir)): workloads.sha256_file(p) for p in csvs}
    csv_bytes = sum(p.stat().st_size for p in csvs)
    shutil.rmtree(pass_dir)
    return {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "csv_bytes": csv_bytes, "digests": digests, "items": records}


def compare_digests(passes: list) -> None:
    """Fail each item whose CSV bytes differ from the first pass of the run."""
    reference = passes[0]["digests"]
    for later in passes[1:]:
        by_label = {rec["label"]: rec for rec in later["items"]}
        for rel in sorted(set(reference) | set(later["digests"])):
            if reference.get(rel) != later["digests"].get(rel):
                label = rel.split("/", 1)[0]
                by_label[label]["problems"].append(f"{rel}: bytes differ from pass 1")


# ---------------------------------------------------------------------- report


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    import tracing

    return [
        *tracing.SELF_TIME_METRICS,
        *tracing.CALL_METRICS,
        *tracing.COUNTER_METRICS,
        *(f"selfcheck.{name}_s" for name in tracing.CHECK_NAMES),
        "selfcheck.self_s",
        "trace.pass_s",
        "trace.overhead_s",
        *tracing.KERNEL_METRICS,
    ]


def run_workload(args) -> int:
    run_started = time.perf_counter()
    load_at_start = os.getloadavg()
    if not (SRC / "sdfs_jcm" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'sdfs_jcm'}", file=sys.stderr)
        return 2
    run_dir = RUNS_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        cli, items, setup_samples = _setup(args.workload, args.seed, run_dir)
        passes = []
        pass_dir = run_dir / "pass"
        report: dict = {}
        if args.trace == 0:
            started = time.perf_counter()
            while True:
                passes.append(run_pass(cli, args.workload, items, pass_dir))
                elapsed = time.perf_counter() - started
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
        else:
            import tracing

            passes.append(run_pass(cli, args.workload, items, pass_dir))
            tracer = tracing.Tracer()
            origin = time.perf_counter()
            passes.append(run_pass(cli, args.workload, items, pass_dir, tracer))
            layers = tracing.layer_metrics(tracer)
            layers["trace.pass_s"] = passes[1]["wall_s"]
            layers["trace.overhead_s"] = passes[1]["wall_s"] - passes[0]["wall_s"]
            kernels, kernel_errors = tracing.kernel_timings()
            layers.update(kernels)
            spans_path = RUNS_DIR / f"{args.workload}-s{args.seed}.spans.npz"
            tracer.save(spans_path, origin)
            report.update(
                module_self_s=tracing.module_self_times(tracer),
                kernel_errors=kernel_errors,
                counter_errors=tracer.counter_errors,
                spans_file=str(spans_path.relative_to(ROOT)),
                span_count=len(tracer.names),
            )
        compare_digests(passes)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(p["items"]) for p in passes)
    failed = sum(1 for p in passes for rec in p["items"] if rec["problems"])
    untraced = [p for p in passes if not p["traced"]]
    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "pass_s": statistics.median(p["wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        metrics = {name: layers[name] for name in per_layer_names()}
        units = {name: _unit(name) for name in metrics}

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"  items/pass {len(items)}  trace {args.trace}")
    samples = {"setup_s": f"median of {len(setup_samples)} set-ups",
               "pass_s": f"median of {len(untraced)} passes",
               "cpu_s": f"median of {len(untraced)} passes",
               "peak_rss_mb": "this process"}
    for name, value in metrics.items():
        note = f"   ({samples[name]})" if name in samples else ""
        print(f"{name:34s} {value:16.6f} {units[name]}{note}")
    print(f"{'failed_frac':34s} {failed / attempted:16.6f} ratio"
          f"   ({failed} failed of {attempted} items)")
    for p_i, p in enumerate(passes, start=1):
        for rec in p["items"]:
            for problem in rec["problems"]:
                print(f"FAILED pass {p_i} {rec['label']}: {problem}")

    reported = {name: {"value": metrics[name], "unit": units[name]} for name in metrics}
    RUNS_DIR.mkdir(exist_ok=True)
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(load_at_start),
        "setup_samples_s": setup_samples, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": reported, **report,
        "run_wall_s": time.perf_counter() - run_started, "passes": passes,
    }
    (RUNS_DIR / f"{tag}.json").write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": reported,
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    worst = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        worst = max(worst, done.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
