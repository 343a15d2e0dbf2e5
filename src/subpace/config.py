"""Scenario files: flat `key = value` text with explicit unit suffixes.

One key per line, `#` starts a comment, unknown keys are an error.  Times
accept ns/us/ms/s, rates bps/kbps/mbps/gbps, sizes B/KB/MB; bare numbers are
taken in the field's base unit (ns, bit/s, bytes).
"""

import math
from dataclasses import MISSING, dataclass, field, fields, replace

from .endpoint import sender_problem
from .engine import MS, SEC, US
from .netpath import link_problem


class ConfigError(ValueError):
    """Invalid scenario configuration; names the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field_name, self.message = field_name, message
        super().__init__(f"{field_name}: {message}")

    def __reduce__(self):
        return ConfigError, (self.field_name, self.message)


_TIME_UNITS = {"ns": 1, "us": US, "ms": MS, "s": SEC}
_RATE_UNITS = {"bps": 1, "kbps": 1_000, "mbps": 1_000_000, "gbps": 1_000_000_000}
_SIZE_UNITS = {"b": 1, "kb": 1_000, "mb": 1_000_000}


def _parse_with_units(field_name: str, raw: str, units: dict[str, int]) -> int:
    text = raw.strip().lower()
    number, scale = text, 1
    for suffix in sorted(units, key=len, reverse=True):
        if text.endswith(suffix):
            number, scale = text[: -len(suffix)].strip(), units[suffix]
            break
    try:
        return int(number) * scale
    except ValueError:  # not integer text; a float bounds it, a Fraction keeps it exact
        pass
    try:
        value = float(number) * scale
    except ValueError:
        raise ConfigError(field_name, f"cannot parse {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(field_name, f"must be a finite number, got {raw!r}")
    from fractions import Fraction  # here, so integer text never imports it

    exact = Fraction(number) * scale  # 1.1 ms is exactly 1,100,000 ns
    if exact.denominator != 1:
        raise ConfigError(field_name, f"must be a whole number of its base unit, got {raw!r}")
    return int(exact)


def parse_time(field_name: str, raw: str) -> int:
    return _parse_with_units(field_name, raw, _TIME_UNITS)


def parse_rate(field_name: str, raw: str) -> int:
    return _parse_with_units(field_name, raw, _RATE_UNITS)


def parse_size(field_name: str, raw: str) -> int:
    return _parse_with_units(field_name, raw, _SIZE_UNITS)


def parse_bool(field_name: str, raw: str) -> bool:
    text = raw.strip().lower()
    if text in ("on", "true", "yes", "1"):
        return True
    if text in ("off", "false", "no", "0"):
        return False
    raise ConfigError(field_name, f"expected on/off, got {raw!r}")


def parse_int(field_name: str, raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ConfigError(field_name, f"expected an integer, got {raw!r}") from None


def parse_float(field_name: str, raw: str) -> float:
    try:
        return float(raw.strip())
    except ValueError:
        raise ConfigError(field_name, f"expected a number, got {raw!r}") from None


def parse_text(field_name: str, raw: str) -> str:
    return raw.strip()


def _key(parse, positive: bool = False, **default):
    """A scenario key: its file parser and whether it must be positive."""
    return field(metadata={"parse": parse, "positive": positive}, **default)


@dataclass
class ScenarioConfig:
    """Everything needed to run one experiment; each field is one scenario key."""

    capacity: int = _key(parse_rate)  # bits per second; link_problem checks it is positive
    n_flows: int = _key(parse_int, positive=True)
    frame_size: int = _key(parse_size, positive=True)  # header-inclusive bytes on the wire
    smss: int = _key(parse_size, positive=True)  # payload bytes per segment
    base_rtt: int = _key(parse_time)  # two-way propagation, ns; link_problem checks it is positive
    aqm_policy: str = _key(parse_text)
    aqm_target: int = _key(parse_time, positive=True)  # queue-delay target, ns
    buffer_limit: int = _key(parse_size)  # bytes
    sender_mode: str = _key(parse_text)
    duration: int = _key(parse_time, positive=True)  # ns
    aqm_ceiling: int | None = _key(parse_time, default=None)  # ns; None means twice aqm_target
    cc_variant: str = _key(parse_text, default="reno-like")
    ecn: bool = _key(parse_bool, default=True)
    delayed_acks: bool = _key(parse_bool, default=True)
    warmup: int | None = _key(parse_time, default=None)  # ns; None means a quarter of duration
    seed: int = _key(parse_int, default=1)
    w_min_fraction: float = _key(parse_float, default=1.0 / 64.0)
    # Keys given as None, so derived here; with_value derives them again.
    _derived: tuple[str, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        self._derived = tuple(k for k in ("aqm_ceiling", "warmup") if getattr(self, k) is None)
        if self.aqm_ceiling is None:
            self.aqm_ceiling = 2 * self.aqm_target
        if self.warmup is None:
            self.warmup = self.duration // 4
        self.validate()

    def validate(self) -> None:
        for name in _POSITIVE:
            if getattr(self, name) <= 0:
                raise ConfigError(name, "must be positive")
        if self.smss >= self.frame_size:
            raise ConfigError("smss", f"must be below frame_size ({self.frame_size})")
        problem = sender_problem(self.sender_mode, self.cc_variant) or link_problem(
            self.aqm_policy, self.capacity, self.buffer_limit, self.aqm_target, self.aqm_ceiling,
            self.base_rtt, self.frame_size,
        )
        if problem:
            raise ConfigError(*problem)
        if not 0 <= self.warmup < self.duration:
            raise ConfigError("warmup", "must satisfy 0 <= warmup < duration")
        if not 0 < self.w_min_fraction <= 1:
            raise ConfigError("w_min_fraction", "must be in (0, 1]")

    @property
    def frame_overhead(self) -> int:
        return self.frame_size - self.smss

    @property
    def w_min_bytes(self) -> int:
        return max(1, round(self.smss * self.w_min_fraction))


_KEYS = [f for f in fields(ScenarioConfig) if f.init]
_FIELD_PARSERS = {f.name: f.metadata["parse"] for f in _KEYS}
_POSITIVE = [f.name for f in _KEYS if f.metadata["positive"]]
_REQUIRED = [f.name for f in _KEYS if f.default is MISSING]


def parse_scenario_text(text: str) -> ScenarioConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}", f"expected `key = value`, got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_PARSERS:
            raise ConfigError(key, "unknown key")
        if key in values:
            raise ConfigError(key, "duplicate key")
        values[key] = _FIELD_PARSERS[key](key, raw.strip())
    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(key, "required key missing")
    return ScenarioConfig(**values)


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario_text(handle.read())


def parse_field_value(field_name: str, raw: str):
    """Parse one value the way the scenario file would; used by sweeps."""
    if field_name not in _FIELD_PARSERS:
        raise ConfigError(field_name, "unknown key")
    return _FIELD_PARSERS[field_name](field_name, raw)


def with_value(cfg: ScenarioConfig, field_name: str, value) -> ScenarioConfig:
    """cfg with one key set; keys left at their default are derived again."""
    return replace(cfg, **{**dict.fromkeys(cfg._derived), field_name: value})
