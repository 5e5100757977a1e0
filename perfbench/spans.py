"""Span tracing of erlangen's layers, installed from outside the package.

The tracer wraps public callables at run time: module-level functions
wherever an ``erlangen`` module binds them, and the ``sample``/``contains``
fields of a group descriptor and the ``evaluate``/``sample_config``
fields of a property.  Each call records one span
``(name, start_ns, end_ns, parent, job, extra)`` in memory; ``parent`` is
the index of the enclosing span (-1 at the top) and ``extra`` carries
trial counts for the three trial loops.  ``fold`` turns a list
of spans into per-layer totals, including self times (a span's duration
minus the time its direct children cover).
"""

from __future__ import annotations

import dataclasses
import sys
import time

ENGINE = "groups.engine"

# (module, attribute, span name): module-level callables to wrap wherever
# an erlangen module binds them
FUNCTIONS = (
    ("erlangen.numerics", "mix_seed", "numerics.mix_seed"),
    ("erlangen.numerics", "rng_from", "numerics.rng_from"),
    ("erlangen.groups", "transform_configuration", "groups.transform_configuration"),
    ("erlangen.groups", "check_group_axioms", ENGINE),
    ("erlangen.groups", "invariance_test", ENGINE),
    ("erlangen.groups", "orbit_sample", ENGINE),
    ("erlangen.transfers", "random_inversive_map", "transfers.random_map"),
    ("erlangen.transfers", "random_lie_map", "transfers.random_map"),
    ("erlangen.moebius", "random_moebius", "moebius.random_moebius"),
    ("erlangen.reports", "serialize_report", "reports.serialize_report"),
)


def _trials(result):
    """(trials attempted, invariance trials attempted, invariance trials
    skipped) of a trial-loop result."""
    if isinstance(result, list):  # orbit_sample: one image per trial
        return len(result), 0, 0
    if hasattr(result, "closure_failures"):  # AxiomReport
        return result.trials, 0, 0
    if hasattr(result, "trials_skipped"):  # Invariant
        attempted = result.trials_executed + result.trials_skipped
        return attempted, attempted, result.trials_skipped
    attempted = result.trial + 1  # Violated stops at its witness trial
    return attempted, attempted, attempted - result.trials_executed


class Tracer:
    """Collects spans; ``job`` labels every span recorded while it is set."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = ""
        self._patched = []

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        engine = name == ENGINE

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            extra = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if engine:
                    extra = _trials(result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.job, extra)

        traced.__wrapped__ = fn
        return traced

    def group(self, g):
        return dataclasses.replace(g, sample=self.wrap(g.sample, "groups.sample"),
                                   contains=self.wrap(g.contains, "groups.contains"))

    def prop(self, p):
        return dataclasses.replace(
            p, evaluate=self.wrap(p.evaluate, "properties.evaluate"),
            sample_config=self.wrap(p.sample_config, "properties.sample_config"))

    def install(self):
        """Rebind every FUNCTIONS entry in every loaded erlangen module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "erlangen" or n.startswith("erlangen."))]
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(orig, name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        out = list(self.spans)
        self.spans.clear()
        return out


def new_totals():
    return {"layers": {}, "trials": 0, "inv_trials": 0, "inv_skipped": 0}


def fold(spans, totals):
    """Add spans to ``totals``: per name [calls, total_ns, self_ns], plus the
    trial counts of the trial loops."""
    child_ns = [0] * len(spans)
    for name, t0, t1, parent, _job, _extra in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    layers = totals["layers"]
    for i, (name, t0, t1, _parent, _job, extra) in enumerate(spans):
        entry = layers.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += t1 - t0
        entry[2] += t1 - t0 - child_ns[i]
        if extra is not None:
            totals["trials"] += extra[0]
            totals["inv_trials"] += extra[1]
            totals["inv_skipped"] += extra[2]
    return totals

