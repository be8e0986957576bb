"""End-to-end benchmark of the ``flavorcollapse`` CLI, with a traced per-layer run.

Usage, from the root of a source checkout (no install needed):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

An op is one pass over a workload's CLI invocations (see workloads.py).
Each invocation runs ``flavorcollapse.cli:main``, the console-script
target, in a fresh interpreter with ``PYTHONPATH=src``, ``--threads 1`` and
BLAS/OpenMP pinned to one thread, writing its output to a scratch file;
its time runs from spawn to exit.  One CLI process runs at a time (closed
loop, one client).  Ops repeat while another is expected to end within
``--seconds``.  Every output is checked (check.py); an op fails if any of
its invocations does.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median per op),
``setup_s`` (median over a block of fresh interpreters that import the CLI
and load every config of the workload, taken before the ops),
``peak_rss_mb`` (median over ops of the largest child peak RSS) and
``trajectories_per_s``.  ``--trace 1`` alternates untraced and traced ops
(spans.py) and reports the per-layer metrics, tracing overhead and
microbenchmarks (micro.py).  Either way the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 0 only if every op passed.  A manifest, the results and the spans go to
``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import Verdict, check, self_check
from workloads import WORKLOADS, Invocation, Workload

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
RUNS = ROOT / ".perfbench_runs"
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLI_MAIN = "import sys; from flavorcollapse.cli import main; sys.exit(main())"
LOAD_CONFIGS = "import sys; from flavorcollapse.cli import load_config\nfor p in sys.argv[1:]: load_config(p)"
IMPORT_REPEATS = 7  # pairs of fresh interpreters per import measurement
SETUP_REPEATS = 15  # fresh interpreters per set-up measurement

_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}
# Span names whose summed self time per op is reported.
SELF_TIMES = {
    "sde.ensemble_evolve_s": "sde.ensemble_evolve",
    "lindblad.integrate_master_s": "lindblad.integrate_master",
    "lindblad.probs_from_kernels_s": "lindblad.probs_from_kernels",
    "cli.load_config_s": "cli.load_config",
    "cli.run_self_s": "cli.run",
    "cli.render_s": "cli.render",
    "analytic.s": "analytic",
}


@dataclass
class Op:
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    output_bytes: int = 0
    verdict: Verdict = field(default_factory=Verdict)
    spans: list = field(default_factory=list)  # per traced invocation: its name and span list


def spawn(argv: list[str], env: dict, stderr_path: Path | None = None) -> tuple[float, float, int]:
    """Run one child to exit; returns (seconds from spawn to exit, peak RSS in MB, exit code)."""
    with open(stderr_path or os.devnull, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Bench:
    """One workload at one seed: its configs and analytic reference outputs in a scratch directory."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload, self.seed, self.work = workload, seed, work
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **THREAD_PINS}
        self.configs: dict[str, Path] = {}
        for inv in workload.invocations:
            path = work / f"{inv.name}.json"
            path.write_text(json.dumps(inv.config))
            self.configs[inv.name] = path
        self.references = {
            inv.name: self._analytic_reference(inv) for inv in workload.invocations if inv.command == "master"
        }

    def _analytic_reference(self, inv: Invocation) -> str:
        from flavorcollapse import cli

        cfg, out = self.work / f"{inv.name}.analytic.json", self.work / f"{inv.name}.analytic.csv"
        cfg.write_text(json.dumps({**inv.config, "command": "analytic"}))
        if cli.main([str(cfg), "--output", str(out)]) != 0:
            raise RuntimeError(f"analytic reference for {inv.name} failed")
        return out.read_text()

    def timed(self, argv: list[str]) -> float:
        """Seconds from spawn to exit of one child that must succeed."""
        wall, _, code = spawn(argv, self.env)
        if code != 0:
            raise RuntimeError(f"{argv[:3]} exited {code}")
        return wall

    def setup_argv(self) -> list[str]:
        """A fresh interpreter that imports the CLI and loads every config, running no command."""
        return [sys.executable, "-c", LOAD_CONFIGS, *map(str, self.configs.values())]

    def import_s(self) -> float:
        """Fresh-interpreter import of the CLI minus a bare interpreter start, alternated."""
        pairs = [
            (self.timed([sys.executable, "-c", "import flavorcollapse.cli"]),
             self.timed([sys.executable, "-c", "pass"]))
            for _ in range(IMPORT_REPEATS)
        ]
        return statistics.median(p[0] for p in pairs) - statistics.median(p[1] for p in pairs)

    def micro(self) -> dict[str, float]:
        done = subprocess.run(
            [sys.executable, str(HERE / "micro.py"), str(self.seed)],
            env=self.env, capture_output=True, text=True, check=True,
        )
        return json.loads(done.stdout)

    def op(self, traced: bool = False) -> Op:
        op = Op()
        for inv in self.workload.invocations:
            out, err, spans = (self.work / f"{inv.name}.{ext}" for ext in ("out", "err", "spans.json"))
            out.unlink(missing_ok=True)
            args = [str(self.configs[inv.name]), "--output", str(out), "--threads", "1"]
            if inv.seeded:
                args += ["--seed", str(self.seed)]
            prefix = [str(HERE / "spans.py"), str(spans)] if traced else ["-c", CLI_MAIN]
            wall, rss, code = spawn([sys.executable, *prefix, *args], self.env, err)
            op.wall_s += wall
            op.peak_rss_mb = max(op.peak_rss_mb, rss)
            text = out.read_text() if out.exists() else ""
            op.output_bytes += len(text.encode())
            op.verdict.merge(check(inv.command, code, err.read_text(), text, self.references.get(inv.name)))
            if traced:
                op.spans.append({"invocation": inv.name, "spans": json.loads(spans.read_text())})
        return op


def repeat(step, until: float) -> list:
    """Calls ``step`` once, then again while another call is expected to end by ``until``.

    Stopping before the deadline, not after it, keeps a run within its
    measuring time even when one op takes a good share of it.
    """
    results, last = [], 0.0
    while not results or time.perf_counter() + last <= until:
        t0 = time.perf_counter()
        results.append(step())
        last = time.perf_counter() - t0
    return results


def layer_metrics(op: Op) -> tuple[dict[str, float], str]:
    """Per-layer metrics of one traced op from its spans and outputs, and its largest self time."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, list] = {}
    for spans in (entry["spans"] for entry in op.spans):
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _, count), covered in zip(spans, child_ns):
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered) / 1e9
            calls[name] = calls.get(name, 0) + 1
            if count is not None:
                work.setdefault(name, []).append(count)
    metrics = {key: self_s.get(name, 0.0) for key, name in SELF_TIMES.items()}
    trajectories = sum(c[0] for c in work.get("sde.ensemble_evolve", []))
    traj_steps = sum(c[1] for c in work.get("sde.ensemble_evolve", []))
    points = sum(work.get("lindblad.integrate_master", []))
    v = op.verdict
    metrics.update({
        "sde.trajectories": trajectories,
        "sde.traj_steps": traj_steps,
        "sde.ns_per_traj_step": metrics["sde.ensemble_evolve_s"] / traj_steps * 1e9,
        "lindblad.integrate_master_calls": calls.get("lindblad.integrate_master", 0),
        "lindblad.integrate_master_us_per_point": metrics["lindblad.integrate_master_s"] / points * 1e6,
        "analytic.calls": calls.get("analytic", 0),
        "cli.output_bytes": op.output_bytes,
        "out.nonfinite": v.nonfinite,
        "out.p_out_of_range": v.p_out_of_range,
        "compare.master_max_residual": v.master_max_residual,
        "compare.ensemble_max_ratio": v.ensemble_max_ratio,
    })
    return metrics, max(self_s, key=self_s.get)


def tail(walls: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With ten samples or fewer no percentile has ten beyond it; the minimum
    (percentile 0) is reported then.
    """
    ordered = sorted(walls)
    k = max(0, len(ordered) - 11)
    pct = 100.0 * k / (len(ordered) - 1) if len(ordered) > 1 else 0.0
    return pct, ordered[k]


def manifest(bench: Bench, ops: dict[str, int], trace: int) -> dict:
    import numpy
    import scipy

    import flavorcollapse

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = rev.stdout.strip() if rev.returncode == 0 else None
    except FileNotFoundError:
        commit = None
    return {
        "workload": bench.workload.name,
        "seed": bench.seed,
        "trace": trace,
        "git_commit": commit,
        "package_version": flavorcollapse.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "config_sha256": {
            name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in bench.configs.items()
        },
        "thread_pins": THREAD_PINS,
        "ops": ops,
    }


def bench_workload(workload: Workload, seed: int, seconds: float, trace: int, work: Path) -> dict:
    bench = Bench(workload, seed, work)
    start = time.perf_counter()
    if not trace:
        setup_argv = bench.setup_argv()
        bench.timed(setup_argv)  # warm the page cache and the bytecode cache
        setups = [bench.timed(setup_argv) for _ in range(SETUP_REPEATS)]
        ops = repeat(bench.op, start + seconds)
        wall = statistics.median(op.wall_s for op in ops)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(op.peak_rss_mb for op in ops),
            "trajectories_per_s": workload.trajectories / wall,
        }
        counts = {"untraced": len(ops)}
        extra = {"op_walls_s": [op.wall_s for op in ops], "setup_samples_s": setups}
    else:
        metrics = {"proc.import_s": bench.import_s(), **bench.micro()}
        # Untraced and traced ops alternate, so that both see the same
        # machine and their difference is the tracer's cost.
        pairs = repeat(lambda: (bench.op(), bench.op(traced=True)), start + seconds)
        plain, traced = [p[0] for p in pairs], [p[1] for p in pairs]
        per_op, largest = zip(*(layer_metrics(op) for op in traced))
        for key in per_op[0]:
            metrics[key] = statistics.median(m[key] for m in per_op)
        walls = [op.wall_s for op in plain]
        pct, value = tail(walls)
        metrics.update({
            "trace.overhead_s": statistics.median(t.wall_s - p.wall_s for p, t in pairs),
            "op.wall_s_tail": value,
            "op.wall_s_tail_pct": pct,
            "op.samples": len(walls),
        })
        ops = plain + traced
        counts = {"untraced": len(plain), "traced": len(traced)}
        extra = {"largest_self_time": list(largest)}
        spans_path = RUNS / f"{workload.name}-seed{seed}-spans.json"
        spans_path.write_text(json.dumps([{"op": k, "invocations": op.spans} for k, op in enumerate(traced)]))
    failed = [op.verdict.problems for op in ops if op.verdict.problems]
    result = {
        "manifest": manifest(bench, counts, trace),
        "attempted": len(ops),
        "failed": len(failed),
        "problems": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        **extra,
    }
    (RUNS / f"{workload.name}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1))
    return result


def report(name: str, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"[{name}] seed={result['manifest']['seed']} ops={attempted} failed={failed}")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"  error_rate = {failed / attempted:.6g} (failed ops / attempted ops)")
    if "largest_self_time" in result:
        print(f"  largest self time per traced op: {', '.join(result['largest_self_time'])}")
    for problems in result["problems"]:
        print(f"  FAILED op: {'; '.join(problems)}")
    print(f"  manifest {json.dumps(result['manifest'])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="workload seed (default: each workload's committed seed)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "flavorcollapse" / "cli.py").is_file():
        print("error: run from the root of a flavorcollapse checkout (src/flavorcollapse is missing)",
              file=sys.stderr)
        return 2
    broken = self_check()
    if broken:
        print(f"error: the output checker is broken: {'; '.join(broken)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    RUNS.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    work = Path(tempfile.mkdtemp(prefix="work-", dir=RUNS))
    try:
        for name in names:
            workload = WORKLOADS[name]
            seed = workload.default_seed if args.seed is None else args.seed
            results[name] = bench_workload(workload, seed, args.seconds, args.trace, work)
            report(name, results[name])
    finally:
        shutil.rmtree(work)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
