"""Scenario files: flat `key = value` text with explicit unit suffixes.

One key per line, `#` starts a comment, unknown keys are an error.  Times
accept ns/us/ms/s, rates bps/kbps/mbps/gbps, sizes B/KB/MB; bare numbers are
taken in the field's base unit (ns, bit/s, bytes).
"""

import math

from .endpoint import check_sender
from .engine import MS, SEC, US, ConfigError
from .netpath import check_link


# Upper bounds that keep a run finite on a desk: each flow costs a sender and a
# receiver, and the event count grows with the duration.
MAX_FLOWS = 10_000
MAX_DURATION = 86_400 * SEC  # one day

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


REQUIRED = ...  # the default of a key the scenario file must give

# Every scenario key: its file parser, its default and whether it must be positive.
KEYS = {
    "capacity": (parse_rate, REQUIRED, False),  # bit/s; check_link checks it is positive
    "n_flows": (parse_int, REQUIRED, True),
    "frame_size": (parse_size, REQUIRED, True),  # header-inclusive bytes on the wire
    "smss": (parse_size, REQUIRED, True),  # payload bytes per segment
    "base_rtt": (parse_time, REQUIRED, False),  # two-way propagation, ns; check_link checks it
    "aqm_policy": (parse_text, REQUIRED, False),
    "aqm_target": (parse_time, REQUIRED, True),  # queue-delay target, ns
    "buffer_limit": (parse_size, REQUIRED, False),  # bytes
    "sender_mode": (parse_text, REQUIRED, False),
    "duration": (parse_time, REQUIRED, True),  # ns
    "aqm_ceiling": (parse_time, None, False),  # ns; None means twice aqm_target
    "cc_variant": (parse_text, "reno-like", False),
    "ecn": (parse_bool, True, False),
    "delayed_acks": (parse_bool, True, False),
    "warmup": (parse_time, None, False),  # ns; None means a quarter of duration
    "seed": (parse_int, 1, False),
    "w_min_fraction": (parse_float, 1.0 / 64.0, False),
}


class ScenarioConfig:
    """Everything needed to run one experiment; one attribute per entry of KEYS."""

    def __init__(self, **values):
        for name in values:
            key_parser(name)  # raises on an unknown key
        for name, (_, default, _) in KEYS.items():
            value = values.get(name, default)
            if value is REQUIRED:
                raise ConfigError(name, "required key missing")
            setattr(self, name, value)
        # Keys given as None, so derived here; with_values derives them again unless given.
        self._derived = tuple(k for k in ("aqm_ceiling", "warmup") if getattr(self, k) is None)
        if self.aqm_ceiling is None:
            self.aqm_ceiling = 2 * self.aqm_target
        if self.warmup is None:
            self.warmup = self.duration // 4
        self.validate()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in KEYS)

    def validate(self) -> None:
        for name, (_, _, positive) in KEYS.items():
            if positive and getattr(self, name) <= 0:
                raise ConfigError(name, "must be positive")
        if self.n_flows > MAX_FLOWS:
            raise ConfigError("n_flows", f"must be at most {MAX_FLOWS}, got {self.n_flows}")
        if self.duration > MAX_DURATION:
            raise ConfigError("duration", f"must be at most one day ({MAX_DURATION} ns), "
                                          f"got {self.duration} ns")
        if self.smss >= self.frame_size:
            raise ConfigError("smss", f"must be below frame_size ({self.frame_size})")
        check_sender(self.sender_mode, self.cc_variant)
        check_link(self.aqm_policy, self.capacity, self.buffer_limit, self.aqm_target,
                   self.aqm_ceiling, self.base_rtt, self.frame_size)
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


def parse_scenario_text(text: str) -> ScenarioConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, equals, raw = stripped.partition("=")
        key = key.strip()
        if not (key and equals):
            raise ConfigError(f"line {lineno}", f"expected `key = value`, got {line.strip()!r}")
        if key in values:
            raise ConfigError(key, "duplicate key")
        values[key] = key_parser(key)(key, raw.strip())
    return ScenarioConfig(**values)


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario_text(handle.read())


def key_parser(field_name: str):
    """The scenario file's parser for one key, called as parser(field_name, raw)."""
    if field_name not in KEYS:
        raise ConfigError(field_name, "unknown key")
    return KEYS[field_name][0]


def with_values(cfg: ScenarioConfig, **changes) -> ScenarioConfig:
    """cfg with the given keys set in one checked step; other defaulted keys are derived again."""
    values = {name: getattr(cfg, name) for name in KEYS}
    return ScenarioConfig(**{**values, **dict.fromkeys(cfg._derived), **changes})


def with_value(cfg: ScenarioConfig, field_name: str, value) -> ScenarioConfig:
    """cfg with one key set, as with_values sets it."""
    return with_values(cfg, **{field_name: value})
