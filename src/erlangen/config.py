"""Run configuration: a line-oriented key = value text format.

The format is deliberately minimal (UTF-8, '#' starts a comment, one
``key = value`` pair per line) so any tooling can parse it.  Unknown
keys are errors: a typo must never silently fall back to a default.
"""

from __future__ import annotations

from .records import Frozen

__all__ = ["RunConfig", "ConfigError", "check_seed", "check_tolerance", "load_config",
           "parse_config_text"]

_KNOWN_KEYS = ("seed", "trials", "tolerance", "group", "dimension")


class ConfigError(Exception):
    pass


def check_seed(seed: int) -> int:
    """The seed range that both the config file and --seed accept: seeds
    are reduced to 64 bits, so a wider one would silently alias another."""
    if not (-(1 << 63) <= seed < (1 << 64)):
        raise ConfigError("seed must fit in 64 bits")
    return seed


def check_tolerance(tol: float) -> float:
    """The tolerances that both the config file and --tol accept: positive
    and finite, since a verdict at tolerance inf or nan says nothing."""
    if not 0 < tol < float("inf"):
        raise ConfigError("tolerance must be positive and finite")
    return tol


class RunConfig(Frozen):
    __slots__ = ("seed", "trials", "tolerance", "group", "dimension")

    def __init__(self, seed: int, trials: int, tolerance: float, group: str, dimension: int):
        if trials < 1:
            raise ConfigError("trials must be >= 1")
        check_tolerance(tolerance)
        check_seed(seed)
        if dimension < 1:
            raise ConfigError("dimension must be >= 1")
        if not group.replace("_", "").replace("-", "").isalnum():
            raise ConfigError(f"group is not an identifier: {group!r}")
        self._set(seed, trials, tolerance, group, dimension)


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        values[key] = (value, lineno)

    for key in _KNOWN_KEYS:
        if key not in values:
            raise ConfigError(f"{source}: missing key {key!r}")

    def parse_int(key):
        text_value, lineno = values[key]
        try:
            return int(text_value, 10)
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: {key} must be an integer, "
                              f"got {text_value!r}") from None

    def parse_float(key):
        text_value, lineno = values[key]
        try:
            return float(text_value)
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: {key} must be a number, "
                              f"got {text_value!r}") from None

    # the parsers' errors carry the source already; RunConfig's get it here
    fields = dict(seed=parse_int("seed"), trials=parse_int("trials"),
                  tolerance=parse_float("tolerance"), group=values["group"][0],
                  dimension=parse_int("dimension"))
    try:
        return RunConfig(**fields)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    return parse_config_text(text, source=str(path))
