"""The benchmark harness in perfbench/ still runs against the library.

perfbench/micro.py and perfbench/spans.py call library names and keywords
directly; a renamed one would fail every benchmark operation.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from flavorcollapse import cli

_ROOT = Path(__file__).resolve().parents[1]


def _run(cwd, script, *args):
    src = str(_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(_ROOT / "perfbench" / script), *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )


def test_microbenchmarks_run():
    proc = _run(_ROOT, "micro.py", "1")
    assert proc.returncode == 0, proc.stderr
    medians = json.loads(proc.stdout)
    assert isinstance(medians, dict)
    assert {"sde.step_us", "sde.stratonovich_step_us", "sde.wiener_increments_3960_us",
            "sde.wiener_increments_400_us"} <= set(medians)


def test_spans_trace_a_compare(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(
        command="compare", m_L=0.5, m_H=1.5, gamma_L=0.0, gamma_H=0.0, model="CSL",
        rate=0.3, r_C=0.5, beta=0.8, m0=1.0, alpha=1.0, d=2,
        t_max=1.0, n_points=5, n_trajectories=16, seed=1, dt=0.01, output=str(tmp_path / "cmp.csv"),
    )))
    out = tmp_path / "spans.json"
    proc = _run(tmp_path, "spans.py", str(out), str(cfg))
    assert proc.returncode == 0, proc.stderr
    names = [span[0] for span in json.loads(out.read_text())]
    assert {"cli.main", "lindblad.integrate_master", "sde.ensemble_evolve"} <= set(names)
    # One closed-form call per probability column, each reached through the module.
    assert names.count("analytic") == 4


def _benchmark_loads():
    """Each config the benchmark runs, with the flags perfbench/run.py passes it.

    Every invocation gets ``--output`` and ``--threads 1``, and ``compare``
    also ``--seed``; each ``master`` config runs once more relabelled
    ``analytic``, with ``--output`` alone, as the reference of its check.
    """
    workloads = runpy.run_path(str(_ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
    for workload in workloads.values():
        for inv in workload.invocations:
            seed = workload.default_seed if inv.seeded else None
            yield pytest.param(inv.config, {"threads": 1, "seed": seed}, id=f"{workload.name}-{inv.name}")
            if inv.command == "master":
                yield pytest.param(dict(inv.config, command="analytic"), {}, id=f"{workload.name}-{inv.name}-analytic")


@pytest.mark.parametrize("config, flags", _benchmark_loads())
def test_every_benchmark_config_loads(tmp_path, config, flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.load_config(str(path)).command == config["command"]
    assert cli.load_config(str(path), dict(flags, output=str(tmp_path / "out.csv"))).command == config["command"]


def test_published_schema_is_valid_and_admits_every_benchmark_config():
    # The shipped schema is a valid draft 2020-12 schema, and every config
    # the benchmark runs (with its flags as keys) and the README example
    # validate against it.
    from jsonschema import Draft202012Validator

    schema = json.loads((_ROOT / "src" / "flavorcollapse" / "data" / "run_config.schema.json").read_text())
    Draft202012Validator.check_schema(schema)
    validator = Draft202012Validator(schema)
    readme = (_ROOT / "README.md").read_text()
    example = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    validator.validate(example)
    for param in _benchmark_loads():
        config, flags = param.values
        validator.validate(dict(config, output="out.csv", **{k: v for k, v in flags.items() if v is not None}))
