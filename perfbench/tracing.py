"""Outside-in span tracing of the sdfs_jcm layers, and fixed-size kernels.

`instrument(tracer)` wraps the layer functions listed in LAYERS. Consumer
modules bind them with `from ... import`, so every module attribute of the
sdfs_jcm package that is the original function object is replaced, in the
defining module (where functions such as `sdfs.choose_truncation` look up
`_amplitudes`) and in its consumers alike. The originals come back when
the context exits. A name the program no longer has is skipped; its
metrics read zero calls.

A span holds its name, start, end and the span open when it started. A
layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# (module, attribute) -> span name
LAYERS = {
    ("sdfs_jcm.cli", "main"): "cli.main",
    ("sdfs_jcm.config", "parse_config"): "config.parse",
    ("sdfs_jcm.runner", "run"): "runner.run",
    ("sdfs_jcm.runner", "_write_csv"): "runner.csv",
    ("sdfs_jcm.sdfs", "choose_truncation"): "sdfs.truncation",
    ("sdfs_jcm.sdfs", "_amplitudes"): "sdfs.amplitudes",
    ("sdfs_jcm.sdfs", "sdfs_state"): "sdfs.state",
    ("sdfs_jcm.sdfs", "sdfs_overlap"): "sdfs.overlap",
    ("sdfs_jcm.fock", "build_sdfs_oracle"): "fock.oracle",
    ("sdfs_jcm.dynamics", "evolve"): "dynamics.evolve",
    ("sdfs_jcm.dynamics", "field_density"): "dynamics.field_density",
    ("sdfs_jcm.dynamics", "conservation_residual"): "dynamics.conservation",
    ("sdfs_jcm.observables", "atomic_inversion"): "observables.inversion",
    ("sdfs_jcm.observables", "gram"): "observables.gram",
    ("sdfs_jcm.observables", "field_entropy"): "observables.field_entropy",
    ("sdfs_jcm.observables", "photon_number_distribution"): "observables.photon_dist",
    ("sdfs_jcm.observables", "phase_distribution"): "observables.phase",
    ("sdfs_jcm.observables", "q_function_grid"): "observables.qgrid",
}
CHECK_SPAN_PREFIX = "selfcheck."

# per-layer metric -> span names whose self times it sums
SELF_TIME_METRICS = {
    "runner.run_self_s": ("runner.run",),
    "runner.csv_s": ("runner.csv",),
    "observables.phase_s": ("observables.phase",),
    "observables.inversion_s": ("observables.inversion",),
    "observables.entropy_s": ("observables.gram", "observables.field_entropy"),
    "observables.photon_dist_s": ("observables.photon_dist",),
    "observables.qgrid_s": ("observables.qgrid",),
    "dynamics.evolve_s": ("dynamics.evolve",),
    "dynamics.field_density_s": ("dynamics.field_density",),
    "dynamics.conservation_s": ("dynamics.conservation",),
    "sdfs.truncation_s": ("sdfs.truncation",),
    "sdfs.amplitudes_s": ("sdfs.amplitudes",),
    "sdfs.state_s": ("sdfs.state",),
    "sdfs.overlap_s": ("sdfs.overlap",),
    "fock.oracle_s": ("fock.oracle",),
    "config.parse_s": ("config.parse",),
    "cli.main_self_s": ("cli.main",),
}
CALL_METRICS = {
    "runner.csv_calls": "runner.csv",
    "observables.phase_calls": "observables.phase",
    "dynamics.evolve_calls": "dynamics.evolve",
    "sdfs.truncation_calls": "sdfs.truncation",
    "sdfs.amplitudes_calls": "sdfs.amplitudes",
    "fock.oracle_calls": "fock.oracle",
}
# counters filled by the wrappers from arguments and results
COUNTER_METRICS = (
    "runner.csv_bytes",
    "observables.phase_cmacs",
    "observables.qgrid_points",
    "sdfs.n_max_max",
    "fock.oracle_dim3",
)
# CheckResult names of the invariant suite; each metric is the check's
# inclusive time, and selfcheck.self_s the suite's own code across checks
CHECK_NAMES = (
    "amplitude-oracle-grid",
    "overlap-oracle-pairs",
    "conservation-fig1",
    "entropy-fig2",
    "revival-structure",
    "entropy-minima",
    "phase-distribution",
    "q-structure",
    "trivial-limits",
)
KERNEL_METRICS = ("kernel.evolve_s", "kernel.phase_s", "kernel.qgrid_s", "kernel.amplitudes_s")


def _count_csv(counters, args, kwargs, result):
    counters["runner.csv_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_phase(counters, args, kwargs, result):
    st, etas = args[0], args[1]
    dim = st.a_coeffs.size + 1  # the field basis carries one photon more
    counters["observables.phase_cmacs"] += len(etas) * dim * 2


def _count_qgrid(counters, args, kwargs, result):
    counters["observables.qgrid_points"] += result.values.size


def _count_truncation(counters, args, kwargs, result):
    counters["sdfs.n_max_max"] = max(counters["sdfs.n_max_max"], int(result))


def _count_oracle(counters, args, kwargs, result):
    dim = args[1] if len(args) > 1 else kwargs["dim"]
    counters["fock.oracle_dim3"] += dim**3


COUNTERS = {
    "runner.csv": _count_csv,
    "observables.phase": _count_phase,
    "observables.qgrid": _count_qgrid,
    "sdfs.truncation": _count_truncation,
    "fock.oracle": _count_oracle,
}


class Tracer:
    """Spans of one traced pass, kept in memory until `save`."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open = [-1]
        self.counters = dict.fromkeys(COUNTER_METRICS, 0)
        self.counter_errors: dict[str, str] = {}

    def wrap(self, name, fn, name_from_result=None):
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open
        )
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if count is not None:
                try:
                    count(self.counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    self.counter_errors[name] = f"{type(exc).__name__}: {exc}"
            if name_from_result is not None:
                names[idx] = name_from_result(result)
            return result

        return traced

    def self_times(self) -> tuple[dict, dict]:
        """(self seconds, calls) per span name."""
        if not self.names:
            return {}, {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents) + 1  # top-level spans land in bin 0
        covered = np.bincount(parents, weights=dur, minlength=dur.size + 1)[1:]
        own = dur - covered
        selfs: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, value in zip(self.names, own.tolist()):
            selfs[name] = selfs.get(name, 0.0) + value
            calls[name] = calls.get(name, 0) + 1
        return selfs, calls

    def inclusive_times(self, prefix: str) -> dict:
        out: dict[str, float] = {}
        for name, start, end in zip(self.names, self.starts, self.ends):
            if name.startswith(prefix):
                out[name] = out.get(name, 0.0) + end - start
        return out

    def save(self, path: Path, origin: float):
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        np.savez_compressed(
            path,
            span_names=np.array(table),
            name=np.array([code[n] for n in self.names], dtype=np.int32),
            start_s=np.asarray(self.starts) - origin,
            end_s=np.asarray(self.ends) - origin,
            parent=np.asarray(self.parents, dtype=np.int64),
        )


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every layer function of the loaded sdfs_jcm modules with spans."""
    wrappers = {}
    for (module_name, attr), span in LAYERS.items():
        fn = getattr(sys.modules.get(module_name), attr, None)
        if fn is not None:
            wrappers[id(fn)] = (fn, tracer.wrap(span, fn))
    undo = []
    modules = [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "sdfs_jcm" or name.startswith("sdfs_jcm."))
    ]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((mod, attr, value))
                setattr(mod, attr, hit[1])
    selfcheck = sys.modules.get("sdfs_jcm.selfcheck")
    checks = getattr(selfcheck, "ALL_CHECKS", None)
    if checks is not None:
        undo.append((selfcheck, "ALL_CHECKS", checks))
        selfcheck.ALL_CHECKS = tuple(
            tracer.wrap(CHECK_SPAN_PREFIX + "check", fn,
                        name_from_result=lambda res: CHECK_SPAN_PREFIX + res.name)
            for fn in checks
        )
    try:
        yield tracer
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric the spans and counters give, in metric units."""
    selfs, calls = tracer.self_times()
    metrics = {
        name: sum(selfs.get(span, 0.0) for span in spans)
        for name, spans in SELF_TIME_METRICS.items()
    }
    metrics.update({name: calls.get(span, 0) for name, span in CALL_METRICS.items()})
    metrics.update(tracer.counters)
    inclusive = tracer.inclusive_times(CHECK_SPAN_PREFIX)
    for check in CHECK_NAMES:
        metrics[f"selfcheck.{check}_s"] = inclusive.get(CHECK_SPAN_PREFIX + check, 0.0)
    metrics["selfcheck.self_s"] = sum(
        (value for name, value in selfs.items() if name.startswith(CHECK_SPAN_PREFIX)), 0.0
    )
    return metrics


def module_self_times(tracer: Tracer) -> dict:
    """Self seconds summed per program module (the span-name prefix)."""
    selfs, _ = tracer.self_times()
    out: dict[str, float] = {}
    for name, value in selfs.items():
        module = name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + value
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


# ------------------------------------------------------------- fixed-size kernels


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _kernels() -> dict:
    """name -> (function building the timed call, repeats)."""
    from sdfs_jcm import dynamics, observables, sdfs

    n_max = 130
    states = [sdfs.SdfsParams(alpha0=3.0, r=1.0, m=m) for m in (0, 1, 2)]

    def initial():
        q = sdfs.sdfs_state(states[1], n_max)
        return q, dynamics.JcmConfig(n_max=n_max)

    def midway():
        q, jcm = initial()
        return dynamics.evolve(q, 12.5, jcm)

    def evolve_sweep():
        q, jcm = initial()
        ts = np.linspace(0.0, 25.0, 2000)
        return lambda: [dynamics.evolve(q, float(t), jcm) for t in ts]

    def phase():
        st = midway()
        etas = observables.default_etas(512)
        return lambda: observables.phase_distribution(st, etas)

    def qgrid():
        st = midway()
        axis = np.linspace(-8.0, 8.0, 201)
        return lambda: observables.q_function_grid(st, axis, axis)

    def amplitudes():
        return lambda: [sdfs.sdfs_state(p, n_max) for p in states]

    return {
        "kernel.evolve_s": (evolve_sweep, 5),
        "kernel.phase_s": (phase, 20),
        "kernel.qgrid_s": (qgrid, 3),
        "kernel.amplitudes_s": (amplitudes, 20),
    }


def kernel_timings() -> tuple[dict, dict]:
    """Median seconds of the layer kernels at fixed sizes, and any errors.

    evolve: the 2000-point time sweep at n_max = 130 (dim 131); phase: one
    density at E = 512 angles on that state; qgrid: one 201 x 201 Q grid;
    amplitudes: the m = 0, 1, 2 states of the figure presets at n_max = 130.
    A kernel whose library entry point is gone reads 0 and reports why.
    """
    values, errors = {}, {}
    for name, (build, repeats) in _kernels().items():
        try:
            values[name] = _median_time(build(), repeats)
        except (TypeError, ValueError, AttributeError) as exc:
            values[name] = 0.0
            errors[name] = f"{type(exc).__name__}: {exc}"
    return values, errors
