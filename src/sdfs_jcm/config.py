"""Run configuration: a flat key = value text format and its validation.

One ``key = value`` per line, ``#`` starts a comment line, blank lines
are ignored. Unknown and duplicate keys are rejected with line numbers;
domain violations name the offending key. `serialize_config` emits a
document that parses back to an identical configuration. `parse_state`
reads the state keys from comma-separated items by the same rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .fock import DIM_CAP, NORM_TOL
from .sdfs import DEFAULT_TAIL_TOL, TAIL_TOL_FLOOR, SdfsParams

OBSERVABLE_NAMES = ("inversion", "entropy", "photon_dist", "phase_dist", "qfunc")
# Most values one output array may hold: 2**27 float64 values are 1 GiB. The
# presets peak near 1.03e6 (2000 times of P(n, t) rows of DIM_CAP + 1 values).
OUTPUT_CAP = 2**27


@dataclass(frozen=True)
class QGridSpec:
    """Rectangular phase-space window for the Husimi Q output."""

    x_min: float = -8.0
    x_max: float = 8.0
    y_min: float = -8.0
    y_max: float = 8.0
    nx: int = 201
    ny: int = 201


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs."""

    state: SdfsParams = field(default_factory=SdfsParams)
    detuning_ratio: float = 0.0
    t_max_scaled: float = 25.0
    t_points: int = 2000
    tail_tol: float = DEFAULT_TAIL_TOL
    eta_points: int = 512
    q_grid: QGridSpec = field(default_factory=QGridSpec)
    q_time_scaled: float | None = None
    observables: tuple[str, ...] = ("inversion", "entropy")
    output_dir: str = "out"


_FLOAT_KEYS = (
    "alpha0_re",
    "alpha0_im",
    "r",
    "phi",
    "detuning_ratio",
    "t_max_scaled",
    "tail_tol",
    "q_x_min",
    "q_x_max",
    "q_y_min",
    "q_y_max",
    "q_time_scaled",
)
_INT_KEYS = ("m", "t_points", "eta_points", "q_nx", "q_ny")
_STR_KEYS = ("observables", "output_dir")
KNOWN_KEYS = (*_FLOAT_KEYS, *_INT_KEYS, *_STR_KEYS)
_STATE_KEYS = ("alpha0_re", "alpha0_im", "r", "phi", "m")
# each is the QGridSpec field name with a "q_" prefix
_GRID_KEYS = ("q_x_min", "q_x_max", "q_y_min", "q_y_max", "q_nx", "q_ny")


def _fail(msg: str, place: str | None = None) -> ValueError:
    where = f" ({place})" if place is not None else ""
    return ValueError(f"config error{where}: {msg}")


def _parse_items(items: list[tuple[str, str]], keys: tuple[str, ...]) -> dict:
    """Typed values of (place, 'key = value') items, keyed by name.

    Keys outside ``keys``, repeated keys, empty values, malformed or
    non-finite numbers and negative r or m are refused, naming the place.
    """
    values: dict[str, object] = {}
    for place, item in items:
        if "=" not in item:
            raise _fail(f"expected 'key = value', got {item!r}", place)
        key, _, text = (part.strip() for part in item.partition("="))
        if key not in keys:
            raise _fail(f"unknown key {key!r}", place)
        if key in values:
            raise _fail(f"duplicate key {key!r}", place)
        if not text:
            raise _fail(f"key {key!r} has an empty value", place)
        try:
            if key in _FLOAT_KEYS:
                value = float(text)
                if not math.isfinite(value):
                    raise ValueError
            elif key in _INT_KEYS:
                value = int(text)
            else:
                value = text
        except ValueError:
            kind = "a number" if key in _FLOAT_KEYS else "an integer"
            raise _fail(f"key {key!r} needs {kind}, got {text!r}", place)
        if key in ("r", "m") and value < 0:
            raise _fail(f"key {key!r} must be >= 0", place)
        values[key] = value
    return values


def _pop_state(values: dict) -> SdfsParams:
    """The state named by the state keys of values, which are removed;
    unset keys keep the SdfsParams defaults."""
    kwargs = {key: values.pop(key) for key in ("r", "phi", "m") if key in values}
    if "alpha0_re" in values or "alpha0_im" in values:
        kwargs["alpha0"] = complex(values.pop("alpha0_re", 0.0), values.pop("alpha0_im", 0.0))
    return SdfsParams(**kwargs)


def validate(cfg: RunConfig) -> RunConfig:
    """Check the run-level domain constraints, naming the offending key.

    The state's own constraints (r >= 0, m >= 0) hold by construction of
    SdfsParams; `parse_config` reports them with their line numbers. The
    time axis (always built) times its widest selected row, a selected
    Q grid, and the phase kernel of a selected phase_dist (eta_points rows
    of up to DIM_CAP + 1 values) may each hold at most OUTPUT_CAP values.
    """
    if cfg.t_max_scaled <= 0:
        raise _fail("key 't_max_scaled' must be > 0")
    if cfg.t_points < 2:
        raise _fail("key 't_points' must be >= 2")
    if not TAIL_TOL_FLOOR <= cfg.tail_tol <= NORM_TOL:
        raise _fail(f"key 'tail_tol' must lie in [{TAIL_TOL_FLOOR:g}, {NORM_TOL:g}]")
    if cfg.eta_points < 1:
        raise _fail("key 'eta_points' must be >= 1")
    g = cfg.q_grid
    if g.nx < 2 or g.ny < 2:
        raise _fail("keys 'q_nx'/'q_ny' must be >= 2")
    if g.x_max <= g.x_min:
        raise _fail("key 'q_x_max' must exceed 'q_x_min'")
    if g.y_max <= g.y_min:
        raise _fail("key 'q_y_max' must exceed 'q_y_min'")
    if cfg.q_time_scaled is not None and cfg.q_time_scaled < 0:
        raise _fail("key 'q_time_scaled' must be >= 0")
    bad = [name for name in cfg.observables if name not in OBSERVABLE_NAMES]
    if bad:
        raise _fail(
            f"key 'observables' has unknown entries {bad}; "
            f"valid: {', '.join(OBSERVABLE_NAMES)}"
        )
    if not cfg.observables:
        raise _fail("key 'observables' must select at least one output")
    widths = dict(inversion=1, entropy=3, photon_dist=DIM_CAP + 1, phase_dist=cfg.eta_points)
    row, widest = max(((widths[n], n) for n in cfg.observables if n in widths), default=(1, "ts"))
    if cfg.t_points * row > OUTPUT_CAP:
        raise _fail(
            f"key 't_points' = {cfg.t_points} with {widest} rows of {row} values "
            f"exceeds the output cap of {OUTPUT_CAP} values"
        )
    if "phase_dist" in cfg.observables and cfg.eta_points * (DIM_CAP + 1) > OUTPUT_CAP:
        raise _fail(
            f"key 'eta_points' = {cfg.eta_points} with a phase kernel of up to {DIM_CAP + 1} "
            f"columns exceeds the output cap of {OUTPUT_CAP} values"
        )
    if "qfunc" in cfg.observables:
        if g.nx * g.ny > OUTPUT_CAP:
            raise _fail(
                f"keys 'q_nx' x 'q_ny' = {g.nx * g.ny} values exceed "
                f"the output cap of {OUTPUT_CAP} values"
            )
        radius = abs(cfg.state.alpha0) + 4.0
        covered = min(-g.x_min, g.x_max, -g.y_min, g.y_max)
        if covered < radius:
            raise _fail(
                f"q grid must span radius >= |alpha0| + 4 = {radius:g} "
                f"when qfunc is selected (currently {covered:g})"
            )
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key = value document.

    Keys the document leaves out keep the defaults of RunConfig,
    QGridSpec and SdfsParams.
    """
    items = [
        (f"line {line_no}", stripped)
        for line_no, line in enumerate(text.splitlines(), start=1)
        if (stripped := line.strip()) and not stripped.startswith("#")
    ]
    values = _parse_items(items, KNOWN_KEYS)
    state = _pop_state(values)
    grid = QGridSpec(**{key[2:]: values.pop(key) for key in _GRID_KEYS if key in values})
    if "observables" in values:
        names = values["observables"].split(",")
        values["observables"] = tuple(name.strip() for name in names if name.strip())
    return validate(RunConfig(state=state, q_grid=grid, **values))


def parse_state(text: str) -> SdfsParams:
    """Parse 'alpha0_re=3,r=1,m=0' into state parameters.

    The comma-separated items follow the rules of a config document:
    numbers must be finite and a key may appear once.
    """
    items = [
        (f"item {item_no}", stripped)
        for item_no, item in enumerate(text.split(","), start=1)
        if (stripped := item.strip())
    ]
    return _pop_state(_parse_items(items, _STATE_KEYS))


def serialize_config(cfg: RunConfig) -> str:
    """Emit a document that `parse_config` maps back to an equal RunConfig."""
    values = {"alpha0_re": cfg.state.alpha0.real, "alpha0_im": cfg.state.alpha0.imag}
    values |= {key: getattr(cfg.state, key) for key in ("r", "phi", "m")}
    run_keys = ("detuning_ratio", "t_max_scaled", "t_points", "tail_tol", "eta_points")
    values |= {key: getattr(cfg, key) for key in run_keys}
    values |= {key: getattr(cfg.q_grid, key[2:]) for key in _GRID_KEYS}
    if cfg.q_time_scaled is not None:
        values["q_time_scaled"] = cfg.q_time_scaled
    lines = [f"{key} = {value!r}\n" for key, value in values.items()]  # repr of an int is str
    lines += [f"observables = {','.join(cfg.observables)}\n", f"output_dir = {cfg.output_dir}\n"]
    return "".join(lines)

