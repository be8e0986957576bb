"""The experiment scripts advertised in README run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, written",
    [
        ("route_comparison.py", [], ["analytic.csv", "master.csv", "ensemble.csv", "compare.csv"]),
        ("bounds_figure.py", ["--n-points", "5"], ["bounds_inverted.csv", "bounds_normal.csv"]),
    ],
)
def test_script_runs_and_writes_its_files(tmp_path, script, args, written):
    # route_comparison.py exits with the compare gate's code, so a zero
    # exit also means its three routes agree.  The scripts write their
    # config files under the temporary directory, which here is one of the
    # test's, and must leave nothing behind in it.
    outdir, scratch = tmp_path / "out", tmp_path / "tmp"
    scratch.mkdir()
    src = str(_ROOT / "src")
    env = dict(
        os.environ, TMPDIR=str(scratch),
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / script), "--outdir", str(outdir), *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in outdir.iterdir()) == sorted(written)
    for name in written:
        assert (outdir / name).read_text().count("\n") > 2
    assert list(scratch.iterdir()) == []


def test_property_sweep_runs_the_property_test(tmp_path):
    # The long profile of tests/test_properties.py, at a tiny example count.
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    src = str(_ROOT / "src")
    env = dict(
        os.environ, TMPDIR=str(scratch),
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "property_sweep.py"), "--examples", "5"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "5 examples: every property held\n"
    assert list(scratch.iterdir()) == []
