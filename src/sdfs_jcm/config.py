"""Run configuration: a flat key = value text format and its validation.

One ``key = value`` per line, ``#`` starts a comment line, blank lines
are ignored. Unknown and duplicate keys are rejected with line numbers;
domain violations name the offending key: a RunConfig checks its own
domain when it is built. `parse_state` reads the state keys from
comma-separated items by the same rules. The phase and Q grids are the
program's own (`observables.ETAS`, `runner.compute`), not keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .fock import DIM_CAP
from .observables import ETA_POINTS
from .sdfs import SdfsParams

OBSERVABLE_NAMES = ("inversion", "entropy", "photon_dist", "phase_dist", "qfunc")
# Most values one output array may hold: 2**27 float64 values are 1 GiB. The
# presets peak near 1.03e6 (2000 times of P(n, t) rows of DIM_CAP + 1 values).
OUTPUT_CAP = 2**27


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs, checked on construction against
    the run-level domain constraints, naming the offending key.

    The state's own constraints (r >= 0, m >= 0) hold by construction of
    SdfsParams; `parse_config` reports them with their line numbers. The
    time axis (always built) times its widest selected row may hold at
    most OUTPUT_CAP values. The phase kernel (ETA_POINTS rows of up to
    DIM_CAP + 1 values) and the 201 x 201 Q grid are fixed sizes below it.
    """

    state: SdfsParams = field(default_factory=SdfsParams)
    detuning_ratio: float = 0.0
    t_max_scaled: float = 25.0
    t_points: int = 2000
    q_time_scaled: float | None = None
    observables: tuple[str, ...] = ("inversion", "entropy")
    output_dir: str = "out"

    def __post_init__(self):
        for key in ("detuning_ratio", "t_max_scaled", "q_time_scaled"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise _fail(f"key {key!r} must be finite, got {value!r}")
        if self.t_max_scaled <= 0:
            raise _fail("key 't_max_scaled' must be > 0")
        if self.t_points < 2:
            raise _fail("key 't_points' must be >= 2")
        if self.q_time_scaled is not None and self.q_time_scaled < 0:
            raise _fail("key 'q_time_scaled' must be >= 0")
        bad = [name for name in self.observables if name not in OBSERVABLE_NAMES]
        if bad:
            raise _fail(
                f"key 'observables' has unknown entries {bad}; "
                f"valid: {', '.join(OBSERVABLE_NAMES)}"
            )
        if not self.observables:
            raise _fail("key 'observables' must select at least one output")
        widths = dict(inversion=1, entropy=3, photon_dist=DIM_CAP + 1, phase_dist=ETA_POINTS)
        row, widest = max(
            ((widths[n], n) for n in self.observables if n in widths), default=(1, "ts")
        )
        if self.t_points * row > OUTPUT_CAP:
            raise _fail(
                f"key 't_points' = {self.t_points} with {widest} rows of {row} values "
                f"exceeds the output cap of {OUTPUT_CAP} values"
            )


_FLOAT_KEYS = (
    "alpha0_re",
    "alpha0_im",
    "r",
    "phi",
    "detuning_ratio",
    "t_max_scaled",
    "q_time_scaled",
)
_INT_KEYS = ("m", "t_points")
_STR_KEYS = ("observables", "output_dir")
KNOWN_KEYS = (*_FLOAT_KEYS, *_INT_KEYS, *_STR_KEYS)
_STATE_KEYS = ("alpha0_re", "alpha0_im", "r", "phi", "m")


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


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key = value document.

    Keys the document leaves out keep the defaults of RunConfig and
    SdfsParams.
    """
    items = [
        (f"line {line_no}", stripped)
        for line_no, line in enumerate(text.splitlines(), start=1)
        if (stripped := line.strip()) and not stripped.startswith("#")
    ]
    values = _parse_items(items, KNOWN_KEYS)
    state = _pop_state(values)
    if "observables" in values:
        names = values["observables"].split(",")
        values["observables"] = tuple(name.strip() for name in names if name.strip())
    return RunConfig(state=state, **values)


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
