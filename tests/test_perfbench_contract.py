"""The benchmark harness in perfbench/ still runs against the library.

perfbench/micro.py and perfbench/spans.py call library names and keywords
directly; a renamed one would fail every benchmark operation.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    names = {span[0] for span in json.loads(out.read_text())}
    assert {"cli.main", "lindblad.integrate_master", "sde.ensemble_evolve"} <= names
