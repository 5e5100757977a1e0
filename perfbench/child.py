"""Child process of the benchmark: times set-up, or one CLI invocation.

    python3 perfbench/child.py setup REPORT WORKLOAD
    python3 perfbench/child.py cli REPORT VERB [ARGS...]

``setup`` times importing erlangen, building the workload's groups and
properties and the warm-up pass.  ``cli`` times ``import erlangen.cli``
and ``cli.main(argv)`` separately, with the span tracer installed in
between, and exits with main's exit code.  Either way the report goes to
the JSON file REPORT, so stdout carries only the CLI's own output.
Needs ``src`` on PYTHONPATH.
"""

import json
import sys
import time


def _setup(workload):
    t0 = time.perf_counter()
    import workloads

    workloads.setup(workload)
    return 0, {"setup_s": time.perf_counter() - t0}


def _cli(argv):
    t0 = time.perf_counter_ns()
    import erlangen.cli as cli
    t1 = time.perf_counter_ns()

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    make_group, make_prop = cli.builtin_group, cli.builtin_property
    cli.builtin_group = lambda *a, **k: tracer.group(make_group(*a, **k))
    cli.builtin_property = lambda *a, **k: tracer.prop(make_prop(*a, **k))
    t2 = time.perf_counter_ns()
    code = cli.main(argv)
    t3 = time.perf_counter_ns()
    sys.stdout.flush()
    return code, {"import_ns": t1 - t0, "main_ns": t3 - t2, "spans": tracer.take()}


def main():
    mode, report = sys.argv[1], sys.argv[2]
    code, out = _setup(sys.argv[3]) if mode == "setup" else _cli(sys.argv[3:])
    with open(report, "w") as f:
        json.dump(out, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
