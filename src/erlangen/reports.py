"""The verdict records, and their serialization.

Every report is a human-readable block followed by one machine-readable
trailer line starting with ``RESULT:``.  Field order is fixed and all
numbers use shortest round-trip (repr) formatting, so equal inputs
serialize to identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from array import array

    from .groups import Configuration, Transformation

__all__ = ["Invariant", "Violated", "AxiomReport", "ContactVerdict", "ValueReport",
           "serialize_report", "parse_report_trailer", "format_number"]


def format_number(x) -> str:
    """Deterministic shortest round-trip text for int/float/complex."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return repr(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    z = complex(x)
    if z.imag == 0.0:
        return repr(z.real)
    return repr(z)


class ValueReport:
    """Plain computed values (CLI verbs with no pass/fail semantics)."""

    def __init__(self, kind: str, fields):
        self.kind = kind
        self.fields = list(fields)

    def __repr__(self):
        return f"ValueReport({self.kind!r}, {self.fields!r})"


@dataclass(frozen=True)
class Invariant:
    """No counterexample in the executed trials (statistical only)."""

    trials_executed: int
    trials_skipped: int
    tol: float

    @property
    def invariant(self) -> bool:
        return True


@dataclass(frozen=True)
class Violated:
    """A reproducible counterexample to invariance."""

    trial: int
    config_seed: int
    transform_seed: int
    before: object
    after: object
    config: Configuration
    transformation: Transformation
    trials_executed: int
    tol: float

    @property
    def invariant(self) -> bool:
        return False


@dataclass
class AxiomReport:
    """Outcome of randomized group-axiom checking.

    Failure lists hold (trial index, seed1, seed2) triples; re-running
    the sampler on the recorded seeds reproduces the witnesses.
    """

    group: str
    trials: int
    tol: float
    closure_failures: list = field(default_factory=list)
    inverse_failures: list = field(default_factory=list)
    identity_failures: list = field(default_factory=list)

    @property
    def total_failures(self) -> int:
        return (len(self.closure_failures) + len(self.inverse_failures)
                + len(self.identity_failures))

    @property
    def ok(self) -> bool:
        return self.total_failures == 0


@dataclass
class ContactVerdict:
    """Outcome of the united-position preservation check.

    ``factors`` holds the per-sample proportionality factor rho of the
    pulled-back form against the original one (rho may vary by point), as
    doubles, 8 bytes a sample;
    a failed sample is recorded with its point and residual.
    """

    is_contact: bool
    samples_used: int
    max_residual: float
    tol: float
    seed: int
    factors: array
    witness_point: Optional[np.ndarray] = None
    witness_residual: Optional[float] = None


def _trailer(verdict: str, pairs) -> str:
    parts = [f"RESULT: {verdict}"]
    parts.extend(f"{k}={v}" for k, v in pairs)
    return " ".join(parts)


def serialize_report(v) -> str:
    """Render an Invariant / Violated / AxiomReport / ContactVerdict /
    ValueReport."""
    if isinstance(v, ValueReport):
        lines = [f"{v.kind}:"]
        for key, val in v.fields:
            lines.append(f"  {key}: {val if isinstance(val, str) else format_number(val)}")
        lines.append(_trailer(v.kind, [(k, val if isinstance(val, str) else format_number(val))
                                       for k, val in v.fields]))
        return "\n".join(lines) + "\n"
    if isinstance(v, Invariant):
        lines = [
            "invariance check: no violation found",
            "  note: statistical verdict (absence of a counterexample), not a proof",
            f"  trials executed: {v.trials_executed}",
            f"  trials skipped (property undefined): {v.trials_skipped}",
            f"  tolerance: {format_number(v.tol)}",
            _trailer("invariant", [("trials", v.trials_executed),
                                   ("tol", format_number(v.tol))]),
        ]
        return "\n".join(lines) + "\n"
    if isinstance(v, Violated):
        lines = [
            "invariance check: VIOLATED",
            f"  trial: {v.trial}",
            f"  value before: {format_number(v.before)}",
            f"  value after:  {format_number(v.after)}",
            f"  config seed: {v.config_seed}",
            f"  transform seed: {v.transform_seed}",
            f"  tolerance: {format_number(v.tol)}",
            "  reproduce: resample the configuration and transformation from the",
            "  recorded seeds with the same group and property.",
            _trailer("violated", [("trials", v.trials_executed),
                                  ("tol", format_number(v.tol)),
                                  ("witness_seed", v.transform_seed),
                                  ("witness_config_seed", v.config_seed)]),
        ]
        return "\n".join(lines) + "\n"
    if isinstance(v, AxiomReport):
        verdict = "axioms-ok" if v.ok else "axioms-failed"
        lines = [
            f"group axiom check: {v.group}",
            f"  trials: {v.trials}",
            f"  closure failures:  {len(v.closure_failures)}",
            f"  inverse failures:  {len(v.inverse_failures)}",
            f"  identity failures: {len(v.identity_failures)}",
            f"  tolerance: {format_number(v.tol)}",
        ]
        pairs = [("group", v.group), ("trials", v.trials),
                 ("tol", format_number(v.tol)),
                 ("closure", len(v.closure_failures)),
                 ("inverse", len(v.inverse_failures)),
                 ("identity", len(v.identity_failures))]
        failures = v.closure_failures + v.inverse_failures + v.identity_failures
        if failures:
            lines.append(f"  first witness (trial, seed1, seed2): {failures[0]}")
            pairs.append(("witness_seed", failures[0][1]))
        lines.append(_trailer(verdict, pairs))
        return "\n".join(lines) + "\n"
    if isinstance(v, ContactVerdict):
        verdict = "contact" if v.is_contact else "not-contact"
        lines = [
            f"contact-form preservation check: {verdict}",
            f"  samples used: {v.samples_used}",
            f"  max alignment residual: {format_number(v.max_residual)}",
            f"  tolerance: {format_number(v.tol)}",
        ]
        pairs = [("samples", v.samples_used),
                 ("tol", format_number(v.tol)),
                 ("max_residual", format_number(v.max_residual))]
        if not v.is_contact:
            lines.append(f"  witness point: {np.array2string(v.witness_point, separator=',')}")
            lines.append(f"  witness residual: {format_number(v.witness_residual)}")
            pairs.append(("witness_seed", v.seed))
        lines.append(_trailer(verdict, pairs))
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def parse_report_trailer(text: str) -> dict:
    """Recover the trailer fields: verdict plus typed key=value pairs."""
    trailer = None
    for line in text.splitlines():
        if line.startswith("RESULT:"):
            trailer = line
    if trailer is None:
        raise ValueError("no RESULT: trailer found")
    tokens = trailer[len("RESULT:"):].split()
    if not tokens:
        raise ValueError("empty trailer")
    out = {"verdict": tokens[0]}
    for tok in tokens[1:]:
        key, _, value = tok.partition("=")
        out[key] = _parse_value(value)
    return out


def _parse_value(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return complex(text)
    except ValueError:
        return text
