"""Run one CLI invocation with spans around the calls into each layer.

Usage: ``python perfbench/spans.py SPANS_JSON CLI_ARG...`` with the package
importable (``PYTHONPATH=src``).  The public module attributes that the CLI
calls through are replaced by wrappers that record a span per call: name,
start and end (``perf_counter_ns``, a system-wide monotonic clock on Linux,
so spans from different processes share one time base), the index of the
enclosing span, and a work count where the call's arguments give one.
Spans stay in memory and are written when the invocation ends.  The CLI's
exit code and output bytes are unchanged.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, work]
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, work=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper; ``work(bound_args)`` gives a count."""
        fn = getattr(owner, attr)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = work(signature.bind(*args, **kwargs).arguments) if work else None
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, time.perf_counter_ns(), 0, parent, count])
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter_ns()

        setattr(owner, attr, traced)


def _traj_steps(args) -> list[int]:
    """[trajectories, trajectory-steps] of one ensemble_evolve call."""
    dt = args["config"].dt
    grid = list(args["t_grid"])
    steps = sum(max(1, round((b - a) / dt)) for a, b in zip(grid, grid[1:]))
    return [args["n_trajectories"], args["n_trajectories"] * steps]


def install(tracer: Tracer):
    from flavorcollapse import analytic, cli, lindblad, sde

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_config", "cli.load_config")
    tracer.wrap(cli, "run", "cli.run")
    tracer.wrap(cli.Table, "render", "cli.render")
    for attr in dir(analytic):
        if attr.startswith("prob_") or attr == "bound_curve":
            tracer.wrap(analytic, attr, "analytic")
    tracer.wrap(lindblad, "integrate_master", "lindblad.integrate_master",
                work=lambda a: len(a["t_grid"]))
    tracer.wrap(lindblad, "probs_from_kernels", "lindblad.probs_from_kernels")
    tracer.wrap(sde, "ensemble_evolve", "sde.ensemble_evolve", work=_traj_steps)
    return cli


if __name__ == "__main__":
    out_path, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.spans, fh)
    sys.exit(code)
