"""Inputs of the three benchmark workloads and the checks on their outputs.

Every workload is a closed loop over items; an item is the argument list
of one `sdfs-jcm` command. Inputs depend only on the seed.

- presets: the 15 figure presets in figure order (the seed changes nothing;
           a fixed order keeps the peak memory from run to run the same).
- check:   the invariant suite, one fixed command (the seed changes nothing).
- sweep:   `run <cfg>` over configs drawn from the seed, inside the domain
           the invariant suite validates.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

import numpy as np

PRESET_NAMES = tuple(f"fig{family}{variant}" for family in "12345" for variant in "abc")

SWEEP_CONFIGS = 40
SWEEP_T_POINTS = 2000
# Domain validated by `sdfs-jcm check` (random overlap pairs and amplitude
# grid): |alpha0| <= 3, r <= 1.2, m <= 3. Nonzero squeezes start at
# R_MIN_NONZERO: tiny r with larger m loses digits without an error, a
# regime left out until the program either computes it or refuses it.
ALPHA_MAX = 3.0
R_MAX = 1.2
R_MIN_NONZERO = 0.05
M_VALUES = (0, 1, 2, 3)
DETUNING_MAX = 3.0

_LN2 = math.log(2.0)

# family -> (csv name, header, data rows or None when set by the truncation)
_PRESET_OUTPUT = {
    "fig1": ("inversion.csv", "lambda_t,W", 2000),
    "fig2": ("entropy.csv", "lambda_t,S_f,lambda_plus,lambda_minus", 2000),
    "fig3": ("photon_dist.csv", "lambda_t,n,P", None),
    "fig4": ("phase_dist.csv", "lambda_t,eta,P", 2000 * 512),
    "fig5": ("qfunc.csv", "x,y,Q", 201 * 201),
}


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of `count` equal strata of [lo, hi), shuffled.

    Stratifying keeps the total work of a pass nearly the same from seed
    to seed, so run-to-run spread reflects the program, not the draw.
    """
    values = [lo + (hi - lo) * (k + rng.random()) / count for k in range(count)]
    rng.shuffle(values)
    return values


def sweep_states(seed: int, count: int = SWEEP_CONFIGS) -> list[dict]:
    """Parameter sets of the sweep workload; a quarter have r = 0 exactly."""
    if count % len(M_VALUES):
        raise ValueError(f"count must be a multiple of {len(M_VALUES)}")
    rng = random.Random(seed)
    n_flat = count // 4
    rs = [0.0] * n_flat + _stratified(rng, count - n_flat, R_MIN_NONZERO, R_MAX)
    rng.shuffle(rs)
    ms = list(M_VALUES) * (count // len(M_VALUES))
    rng.shuffle(ms)
    # uniform in the disk |alpha0| <= ALPHA_MAX: stratify the squared radius
    radii = [ALPHA_MAX * math.sqrt(u) for u in _stratified(rng, count, 0.0, 1.0)]
    detunings = _stratified(rng, count, -DETUNING_MAX, DETUNING_MAX)
    states = []
    for i in range(count):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        states.append(
            {
                "alpha0_re": radii[i] * math.cos(angle),
                "alpha0_im": radii[i] * math.sin(angle),
                "r": rs[i],
                "phi": rng.uniform(0.0, 2.0 * math.pi),
                "m": ms[i],
                "detuning_ratio": detunings[i],
            }
        )
    return states


def sweep_config_text(state: dict, output_dir: Path) -> str:
    lines = [f"{key} = {value!r}" for key, value in state.items()]
    lines += [
        f"t_points = {SWEEP_T_POINTS}",
        "observables = inversion,entropy",
        f"output_dir = {output_dir}",
    ]
    return "\n".join(lines) + "\n"


def make_items(workload: str, seed: int, work_dir: Path, out_dir: Path) -> list[tuple]:
    """(label, argv) per item. Inputs go to work_dir, outputs to out_dir/<label>."""
    if workload == "presets":
        return [(name, ["preset", name, "--out", str(out_dir / name)]) for name in PRESET_NAMES]
    if workload == "check":
        return [("check", ["check"])]
    if workload == "sweep":
        work_dir.mkdir(parents=True, exist_ok=True)
        items = []
        for i, state in enumerate(sweep_states(seed)):
            label = f"cfg{i:03d}"
            path = work_dir / f"{label}.cfg"
            path.write_text(sweep_config_text(state, out_dir / label))
            items.append((label, ["run", str(path)]))
        return items
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- output checks


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _count_lines(path: Path) -> int:
    count = 0
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            count += block.count(b"\n")
    return count


def _load(path: Path, max_rows: int | None = None) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, max_rows=max_rows, ndmin=2)


def _check_csv(path: Path, header: str, rows: int | None) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    with open(path) as handle:
        first = handle.readline().rstrip("\n")
    if first != header:
        return [f"{path.name}: header {first!r}, expected {header!r}"]
    data_rows = _count_lines(path) - 1
    if rows is not None and data_rows != rows:
        return [f"{path.name}: {data_rows} data rows, expected {rows}"]
    if rows is None and (data_rows <= 0 or data_rows % 2000):
        return [f"{path.name}: {data_rows} data rows, not a multiple of 2000"]
    return []


def _check_inversion(data: np.ndarray, t_points: int) -> list[str]:
    ts, w = data[:, 0], data[:, 1]
    problems = []
    if data.shape[0] != t_points or not np.allclose(ts, np.linspace(0, ts[-1], t_points)):
        problems.append("inversion.csv: time column is not the configured grid")
    if abs(w[0] - 1.0) > 1e-10:
        problems.append(f"inversion.csv: W(0) = {w[0]!r}, expected 1 (atom excited)")
    if np.max(np.abs(w)) > 1.0 + 1e-10:
        problems.append("inversion.csv: |W| exceeds 1")
    return problems


def _check_entropy(data: np.ndarray) -> list[str]:
    s, lp, lm = data[:, 1], data[:, 2], data[:, 3]
    problems = []
    if abs(s[0]) > 1e-8:
        problems.append(f"entropy.csv: S(0) = {s[0]!r}, expected 0 (pure start)")
    if np.min(s) < -1e-12 or np.max(s) > _LN2 + 1e-12:
        problems.append("entropy.csv: entropy outside [0, ln 2]")
    if np.max(np.abs(lp + lm - 1.0)) > 1e-9:
        problems.append("entropy.csv: eigenvalues do not sum to 1")
    return problems


def _check_preset(label: str, out: Path) -> list[str]:
    name, header, rows = _PRESET_OUTPUT[label[:4]]
    path = out / name
    problems = _check_csv(path, header, rows)
    if problems:
        return problems
    family = label[:4]
    if family == "fig1":
        return _check_inversion(_load(path), 2000)
    if family == "fig2":
        return _check_entropy(_load(path))
    if family == "fig3":
        data = _load(path)
        per_t = np.bincount(np.unique(data[:, 0], return_inverse=True)[1], weights=data[:, 2])
        if np.max(np.abs(per_t - 1.0)) > 1e-9:
            return ["photon_dist.csv: P(n, t) does not sum to 1 at every t"]
    if family == "fig4":
        first = _load(path, max_rows=512)  # t = 0 block only; the file has 1 M rows
        integral = float(np.sum(first[:, 2])) * 2.0 * math.pi / 512
        if abs(integral - 1.0) > 1e-6:
            return [f"phase_dist.csv: integral at t = 0 is {integral!r}"]
    if family == "fig5":
        data = _load(path)
        cell = (16.0 / 200) ** 2
        integral = float(np.sum(data[:, 2])) * cell
        if abs(integral - 1.0) > 1e-3:
            return [f"qfunc.csv: grid integral {integral!r}"]
    return []


def check_item(workload: str, label: str, rc: int, stdout: str, out: Path) -> list[str]:
    """Problems with one item's result; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    if workload == "check":
        lines = stdout.splitlines()
        if any(line.startswith("FAIL") for line in lines):
            return ["check reported FAIL"]
        if not any(line.startswith("PASS") for line in lines):
            return ["check printed no PASS line"]
        return []
    if workload == "presets":
        return _check_preset(label, out)
    problems = _check_csv(out / "inversion.csv", "lambda_t,W", SWEEP_T_POINTS)
    problems += _check_csv(
        out / "entropy.csv", "lambda_t,S_f,lambda_plus,lambda_minus", SWEEP_T_POINTS
    )
    if problems:
        return problems
    return _check_inversion(_load(out / "inversion.csv"), SWEEP_T_POINTS) + _check_entropy(
        _load(out / "entropy.csv")
    )
