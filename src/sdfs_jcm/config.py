"""Run configuration: a flat key = value text format and its validation.

One ``key = value`` per line, ``#`` starts a comment line, blank lines
are ignored. Unknown and duplicate keys are rejected with line numbers;
domain violations name the offending key. `serialize_config` emits a
document that parses back to an identical configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .sdfs import SdfsParams

OBSERVABLE_NAMES = ("inversion", "entropy", "photon_dist", "phase_dist", "qfunc")


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
    tail_tol: float = 1e-12
    eta_points: int = 512
    q_grid: QGridSpec = field(default_factory=QGridSpec)
    q_time_scaled: float | None = None
    observables: tuple[str, ...] = ("inversion", "entropy")
    output_dir: str = "out"


# key -> (parser, default-field documentation)
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


def _fail(msg: str, line_no: int | None = None) -> ValueError:
    where = f" (line {line_no})" if line_no is not None else ""
    return ValueError(f"config error{where}: {msg}")


def validate(cfg: RunConfig) -> RunConfig:
    """Check the run-level domain constraints, naming the offending key.

    The state's own constraints (r >= 0, m >= 0) hold by construction of
    SdfsParams; `parse_config` reports them with their line numbers.
    """
    if cfg.t_max_scaled <= 0:
        raise _fail("key 't_max_scaled' must be > 0")
    if cfg.t_points < 2:
        raise _fail("key 't_points' must be >= 2")
    if not 0.0 < cfg.tail_tol < 1.0:
        raise _fail("key 'tail_tol' must lie in (0, 1)")
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
    if "qfunc" in cfg.observables:
        radius = abs(cfg.state.alpha0) + 4.0
        covered = min(-g.x_min, g.x_max, -g.y_min, g.y_max)
        if covered < radius:
            raise _fail(
                f"q grid must span radius >= |alpha0| + 4 = {radius:g} "
                f"when qfunc is selected (currently {covered:g})"
            )
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key = value document."""
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise _fail(f"expected 'key = value', got {stripped!r}", line_no)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise _fail(f"unknown key {key!r}", line_no)
        if key in raw:
            raise _fail(f"duplicate key {key!r}", line_no)
        if not value:
            raise _fail(f"key {key!r} has an empty value", line_no)
        raw[key] = value
        lines[key] = line_no

    values: dict[str, object] = {}
    for key, text_value in raw.items():
        try:
            if key in _FLOAT_KEYS:
                parsed = float(text_value)
                if not math.isfinite(parsed):
                    raise ValueError
                values[key] = parsed
            elif key in _INT_KEYS:
                values[key] = int(text_value)
            else:
                values[key] = text_value
        except ValueError:
            kind = "a number" if key in _FLOAT_KEYS else "an integer"
            raise _fail(f"key {key!r} needs {kind}, got {text_value!r}", lines[key])

    if values.get("r", 0.0) < 0:
        raise _fail("key 'r' must be >= 0", lines.get("r"))
    if values.get("m", 0) < 0:
        raise _fail("key 'm' must be >= 0", lines.get("m"))

    state = SdfsParams(
        alpha0=complex(values.get("alpha0_re", 0.0), values.get("alpha0_im", 0.0)),
        r=values.get("r", 0.0),
        phi=values.get("phi", 0.0),
        m=values.get("m", 0),
    )
    grid = QGridSpec(
        x_min=values.get("q_x_min", -8.0),
        x_max=values.get("q_x_max", 8.0),
        y_min=values.get("q_y_min", -8.0),
        y_max=values.get("q_y_max", 8.0),
        nx=values.get("q_nx", 201),
        ny=values.get("q_ny", 201),
    )
    observables = tuple(
        name.strip()
        for name in str(values.get("observables", "inversion,entropy")).split(",")
        if name.strip()
    )
    cfg = RunConfig(
        state=state,
        detuning_ratio=values.get("detuning_ratio", 0.0),
        t_max_scaled=values.get("t_max_scaled", 25.0),
        t_points=values.get("t_points", 2000),
        tail_tol=values.get("tail_tol", 1e-12),
        eta_points=values.get("eta_points", 512),
        q_grid=grid,
        q_time_scaled=values.get("q_time_scaled"),
        observables=observables,
        output_dir=str(values.get("output_dir", "out")),
    )
    return validate(cfg)


def serialize_config(cfg: RunConfig) -> str:
    """Emit a document that `parse_config` maps back to an equal RunConfig."""
    pairs: list[tuple[str, str]] = [
        ("alpha0_re", repr(cfg.state.alpha0.real)),
        ("alpha0_im", repr(cfg.state.alpha0.imag)),
        ("r", repr(cfg.state.r)),
        ("phi", repr(cfg.state.phi)),
        ("m", str(cfg.state.m)),
        ("detuning_ratio", repr(cfg.detuning_ratio)),
        ("t_max_scaled", repr(cfg.t_max_scaled)),
        ("t_points", str(cfg.t_points)),
        ("tail_tol", repr(cfg.tail_tol)),
        ("eta_points", str(cfg.eta_points)),
        ("q_x_min", repr(cfg.q_grid.x_min)),
        ("q_x_max", repr(cfg.q_grid.x_max)),
        ("q_y_min", repr(cfg.q_grid.y_min)),
        ("q_y_max", repr(cfg.q_grid.y_max)),
        ("q_nx", str(cfg.q_grid.nx)),
        ("q_ny", str(cfg.q_grid.ny)),
    ]
    if cfg.q_time_scaled is not None:
        pairs.append(("q_time_scaled", repr(cfg.q_time_scaled)))
    pairs.append(("observables", ",".join(cfg.observables)))
    pairs.append(("output_dir", cfg.output_dir))
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def with_output_dir(cfg: RunConfig, output_dir: str) -> RunConfig:
    return replace(cfg, output_dir=output_dir)
