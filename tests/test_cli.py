import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flavorcollapse import cli
from flavorcollapse.analytic import prob_flavor_csl, prob_flavor_qmupl
from flavorcollapse.core import Convention, FlavorTarget, MesonParams
from flavorcollapse.errors import CatalogMiss, ParseError, UnknownKey

from conftest import make_csl


def write_config(tmp_path, name="run.json", **entries):
    path = tmp_path / name
    path.write_text(json.dumps(entries))
    return str(path)


def read_csv(path):
    lines = [line for line in open(path).read().splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return columns, rows


def column(path, name):
    columns, rows = read_csv(path)
    idx = columns.index(name)
    return np.array([float(row[idx]) for row in rows])


_EXPLICIT_QM = dict(m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0, model="QM")
_EXPLICIT_CSL = dict(
    m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0, model="CSL",
    rate=0.2, r_C=0.4, beta=0.8, m0=1.0, alpha=1.0, d=2,
)


def test_load_config_catalog_minimal(tmp_path):
    cfg = write_config(
        tmp_path, command="analytic", meson="K0", model="CSL",
        rate=1e-20, r_C=1e-7, beta=0.8, m0_MeV=938.272, alpha=1e-14, d=3,
    )
    spec = cli.load_config(cfg)
    assert spec.command == "analytic"
    assert spec.meson.gamma_L > spec.meson.gamma_H
    assert any("unit conversion" in note for note in spec.header_notes)


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, command="analytic", bata=0.5, **_EXPLICIT_CSL)
    with pytest.raises(UnknownKey, match="bata"):
        cli.load_config(cfg)
    assert cli.main([cfg]) == 1


def test_catalog_miss(tmp_path):
    cfg = write_config(tmp_path, command="estimate", meson="X17")
    with pytest.raises(CatalogMiss):
        cli.load_config(cfg)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"command": "analytic",')
    with pytest.raises(ParseError, match="line"):
        cli.load_config(str(path))


def test_nonpositive_tmax_rejected(tmp_path):
    cfg = write_config(tmp_path, command="analytic", t_max=-1.0, **_EXPLICIT_CSL)
    assert cli.main([cfg]) == 1


def test_analytic_qm_asymmetry_is_cosine(tmp_path):
    cfg = write_config(tmp_path, command="analytic", t_max=6.0, n_points=25, **_EXPLICIT_QM)
    out = str(tmp_path / "qm.csv")
    assert cli.main([cfg, "--output", out]) == 0
    times = column(out, "time")
    np.testing.assert_allclose(column(out, "asymmetry"), np.cos(times), atol=1e-12)


def test_master_matches_analytic_csl(tmp_path):
    cfg = write_config(tmp_path, command="master", t_max=8.0, n_points=81, **_EXPLICIT_CSL)
    out = str(tmp_path / "master.csv")
    assert cli.main([cfg, "--output", out]) == 0
    meson = MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0)
    collapse = make_csl(beta=0.8, rate=0.2)
    times = column(out, "time")
    np.testing.assert_allclose(
        column(out, "P_M0_M0"),
        prob_flavor_csl(meson, collapse, FlavorTarget.M0, times),
        atol=1e-8,
    )


def test_master_qmupl_uses_kernel_route(tmp_path):
    cfg = write_config(
        tmp_path, command="master", t_max=5.0, n_points=21,
        m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0, model="QMUPL",
        rate=0.05, beta=0.75, m0=1.0, alpha=1.0, d=2,
    )
    out = str(tmp_path / "qmupl.csv")
    assert cli.main([cfg, "--output", out]) == 0
    meson = MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0)
    from conftest import make_qmupl

    collapse = make_qmupl(rate=0.05, beta=0.75)
    times = column(out, "time")
    np.testing.assert_allclose(
        column(out, "P_M0_M0bar"),
        prob_flavor_qmupl(meson, collapse, FlavorTarget.M0BAR, times),
        atol=1e-12,
    )


def test_ensemble_bytes_deterministic(tmp_path):
    cfg = write_config(
        tmp_path, command="ensemble", t_max=2.0, n_points=5, n_trajectories=64,
        seed=7, dt=0.01, **_EXPLICIT_CSL,
    )
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    out_c = str(tmp_path / "c.csv")
    assert cli.main([cfg, "--output", out_a]) == 0
    assert cli.main([cfg, "--output", out_b]) == 0
    assert cli.main([cfg, "--output", out_c, "--threads", "4"]) == 0
    bytes_a = open(out_a, "rb").read()
    assert bytes_a == open(out_b, "rb").read()
    assert bytes_a == open(out_c, "rb").read()


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(
        tmp_path, command="ensemble", t_max=1.0, n_points=3, n_trajectories=32,
        seed=7, dt=0.01, **_EXPLICIT_CSL,
    )
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert cli.main([cfg, "--output", out_a]) == 0
    assert cli.main([cfg, "--output", out_b, "--seed", "8"]) == 0
    assert open(out_a, "rb").read() != open(out_b, "rb").read()


def test_ensemble_rejects_qmupl(tmp_path):
    cfg = write_config(
        tmp_path, command="ensemble", n_trajectories=16, dt=0.01,
        m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0, model="QMUPL",
        rate=0.05, beta=0.75, m0=1.0, alpha=1.0,
    )
    assert cli.main([cfg]) == 1


def test_compare_rate_zero_exits_clean(tmp_path):
    cfg = write_config(
        tmp_path, command="compare", t_max=4.0, n_points=9, n_trajectories=48,
        seed=3, dt=0.005,
        m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0, model="CSL",
        rate=0.0, r_C=0.4, beta=0.8, m0=1.0, alpha=1.0, d=2,
    )
    out = str(tmp_path / "cmp.csv")
    assert cli.main([cfg, "--output", out]) == 0
    columns, rows = read_csv(out)
    for name in columns:
        if name.startswith("res_master_"):
            values = column(out, name)
            assert np.abs(values).max() < 1e-10


def test_compare_default_csl_exits_zero(tmp_path):
    cfg = write_config(
        tmp_path, command="compare", t_max=4.0, n_points=9, n_trajectories=400,
        seed=11, dt=0.002, **_EXPLICIT_CSL,
    )
    out = str(tmp_path / "cmp.csv")
    assert cli.main([cfg, "--output", out]) == 0


def test_compare_qm_with_decay_exits_zero(tmp_path):
    cfg = write_config(
        tmp_path, command="compare", t_max=4.0, n_points=9, n_trajectories=48,
        seed=2, dt=0.002,
        m_L=1.0, m_H=2.0, gamma_L=0.2, gamma_H=0.08, model="QM",
    )
    assert cli.main([cfg, "--output", str(tmp_path / "qm.csv")]) == 0


@pytest.mark.parametrize("equation", ["flavor_decay", "imaginary", "stratonovich", "nonlinear", "enlarged"])
def test_ensemble_equation_variants_run(tmp_path, equation):
    cfg = write_config(
        tmp_path, command="ensemble", t_max=1.0, n_points=3, n_trajectories=16,
        seed=4, dt=0.01, equation=equation,
        m_L=1.0, m_H=2.0, gamma_L=0.1, gamma_H=0.05, model="CSL",
        rate=0.2, r_C=0.4, beta=0.8, m0=1.0, alpha=1.0, d=2,
    )
    out = str(tmp_path / f"{equation}.csv")
    assert cli.main([cfg, "--output", out]) == 0
    assert column(out, "P_M0_M0")[0] == pytest.approx(1.0)


def test_compare_catalog_scale_kaon(tmp_path):
    # Physical-magnitude inputs (PDG kaon constants) stay tractable thanks
    # to the diag(0, delta_m) gauge of the mass operator.
    cfg = write_config(
        tmp_path, command="compare", meson="K0", model="CSL",
        rate=2.2e-10, r_C=1e-7, beta=0.8, m0_MeV=938.272, alpha=1e-14, d=3,
        n_points=9, n_trajectories=64, seed=3, dt=2.5e-13,
    )
    out = str(tmp_path / "k0.csv")
    assert cli.main([cfg, "--output", out]) == 0
    for name in ("res_master_P_M0_M0", "res_master_P_L_L"):
        assert np.abs(column(out, name)).max() < 1e-8


def test_compare_catalog_qm_kaon_finite(tmp_path):
    # The QM ensemble runs on the gauged mass operator diag(0, delta_m);
    # with the absolute K0 mass (~7.6e23 1/s) the Euler step overflowed.
    cfg = write_config(
        tmp_path, command="compare", meson="K0", model="QM",
        n_points=9, n_trajectories=16, seed=3, dt=2.5e-13,
    )
    out = str(tmp_path / "k0_qm.csv")
    assert cli.main([cfg, "--output", out]) == 0
    _, rows = read_csv(out)
    assert np.all(np.isfinite(np.array(rows, dtype=float)))


@pytest.mark.parametrize("meson", ["K0", "D0", "B0", "Bs0"])
def test_master_matches_analytic_catalog_full_window(tmp_path, meson):
    # Default window 10 / gamma_bar at 400 points, physical-scale inputs.
    spec = cli.load_config(write_config(
        tmp_path, command="master", meson=meson, model="CSL",
        rate=2.2e-10, r_C=1e-7, beta=0.8, m0_MeV=938.272, alpha=1e-14, d=3,
    ))
    times = spec.grid
    master = cli._master_probs(spec, times)
    analytic = cli._analytic_probs(spec, times)
    for name in cli._PROB_COLUMNS:
        assert np.abs(master[name] - analytic[name]).max() < 1e-12, name


def test_compare_routes_nan_residual_fails():
    times = np.linspace(0.0, 1.0, 3)
    probs = {name: np.full_like(times, 0.5) for name in cli._PROB_COLUMNS}
    broken = dict(probs, P_L_L=np.array([0.5, np.nan, 0.5]))
    errs = {name: np.full_like(times, 1e-3) for name in probs}
    floor = np.full_like(times, 1e-12)
    _, master_max, ratio_max = cli.compare_routes(times, probs, broken, broken, errs, floor)
    assert np.isnan(master_max) and np.isnan(ratio_max)
    assert not master_max < cli._MASTER_RESIDUAL_TOL
    assert not ratio_max < cli._ENSEMBLE_RATIO_TOL


def test_compare_routes_negative_control():
    # Deliberately mismatched beta between routes trips the ratio gate.
    meson = MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0)
    times = np.linspace(0.0, 4.0, 9)
    good = make_csl(beta=0.9, rate=0.3)
    bad = make_csl(beta=0.6, rate=0.3)

    def probs(collapse):
        return {
            "P_M0_M0": prob_flavor_csl(meson, collapse, FlavorTarget.M0, times),
            "P_M0_M0bar": prob_flavor_csl(meson, collapse, FlavorTarget.M0BAR, times),
            "P_L_L": np.ones_like(times),
            "P_H_H": np.ones_like(times),
        }

    errs = {name: np.full_like(times, 1e-4) for name in probs(good)}
    _, master_max, ratio_max = cli.compare_routes(
        times, probs(good), probs(good), probs(bad), errs, np.full_like(times, 1e-12)
    )
    assert master_max < 1e-12
    assert ratio_max > cli._ENSEMBLE_RATIO_TOL


def test_compare_exit_code_three_on_route_mismatch(tmp_path, monkeypatch):
    # Force the analytic route off so the full command path returns 3.
    cfg = write_config(
        tmp_path, command="compare", t_max=3.0, n_points=7, n_trajectories=48,
        seed=5, dt=0.005, **_EXPLICIT_CSL,
    )
    true_analytic = cli._analytic_probs

    def skewed(spec, times):
        probs = true_analytic(spec, times)
        return {name: values + 0.05 for name, values in probs.items()}

    monkeypatch.setattr(cli, "_analytic_probs", skewed)
    assert cli.main([cfg, "--output", str(tmp_path / "cmp.csv")]) == 3


def test_schema_file_matches_loader_keys():
    from importlib import resources

    with resources.files("flavorcollapse.data").joinpath("run_config.schema.json").open() as fh:
        schema = json.load(fh)
    assert set(schema["properties"]) == cli._SCHEMA_KEYS
    assert schema["additionalProperties"] is False


def test_estimate_roundtrip(tmp_path):
    cfg = write_config(
        tmp_path, command="estimate",
        m_L=3.0, m_H=4.0, gamma_L=0.9, gamma_H=1.6,
    )
    out = str(tmp_path / "estimate.csv")
    assert cli.main([cfg, "--output", out]) == 0
    columns, rows = read_csv(out)
    normal_ok = [row for row in rows if row[0] == "normal" and row[4] == "1"]
    assert len(normal_ok) == 1
    root = float(normal_ok[0][columns.index("m_L_root")])
    assert root == pytest.approx(3.0, abs=1e-9)
    coeff_l = float(normal_ok[0][columns.index("family_coeff_L")])
    coeff_h = float(normal_ok[0][columns.index("family_coeff_H")])
    assert coeff_l == pytest.approx(0.1, rel=1e-9)
    assert coeff_h == pytest.approx(coeff_l, rel=1e-9)


def test_estimate_linear_case(tmp_path):
    cfg = write_config(
        tmp_path, command="estimate",
        m_L=3.0, m_H=4.0, gamma_L=0.7, gamma_H=0.7,
    )
    out = str(tmp_path / "linear.csv")
    assert cli.main([cfg, "--output", out]) == 0
    columns, rows = read_csv(out)
    normal_rows = [row for row in rows if row[0] == "normal"]
    assert len(normal_rows) == 1
    assert float(normal_rows[0][columns.index("m_L_root")]) == pytest.approx(-0.5)
    assert normal_rows[0][columns.index("physical")] == "0"


def test_estimate_degenerate_denominator_reported(tmp_path):
    cfg = write_config(
        tmp_path, command="estimate",
        m_L=3.0, m_H=4.0, gamma_L=0.0, gamma_H=0.4,
    )
    out = str(tmp_path / "degenerate.csv")
    assert cli.main([cfg, "--output", out]) == 0
    _, rows = read_csv(out)
    assert any(row[0] == "normal" and row[1] == "degenerate_denominator" for row in rows)


def test_bounds_two_meson_blocks_and_references(tmp_path):
    cfg = write_config(
        tmp_path, command="bounds", mesons=["K0", "B0"], ratio_convention="inverted",
        m0_min_MeV=100.0, m0_max_MeV=10000.0, n_points=20,
    )
    out = str(tmp_path / "bounds.csv")
    assert cli.main([cfg, "--output", out]) == 0
    columns, rows = read_csv(out)
    curves = {row[0] for row in rows}
    assert {"K0_inverted", "B0_inverted", "ref_GRW", "ref_Adler"} <= curves
    ref = [row for row in rows if row[0] == "ref_GRW"]
    assert float(ref[0][columns.index("lambda_lower_bound")]) == 1e-16

    k_rows = [row for row in rows if row[0] == "K0_inverted"]
    m0 = np.array([float(r[1]) for r in k_rows])
    lam = np.array([float(r[2]) for r in k_rows])
    slope = np.polyfit(np.log(m0), np.log(lam), 1)[0]
    assert slope == pytest.approx(-2.0, abs=1e-6)


def test_bounds_endpoints_match_direct_call(tmp_path):
    cfg = write_config(
        tmp_path, command="bounds", meson="K0", ratio_convention="normal",
        m0_min_MeV=100.0, m0_max_MeV=1000.0, n_points=5,
    )
    out = str(tmp_path / "endpoints.csv")
    assert cli.main([cfg, "--output", out]) == 0
    columns, rows = read_csv(out)
    k_rows = [row for row in rows if row[0] == "K0_normal"]
    from flavorcollapse.analytic import collapse_rate_lower_bound

    spec = cli.load_config(cfg)
    for row in (k_rows[0], k_rows[-1]):
        m0 = float(row[1])
        expected = collapse_rate_lower_bound(spec.meson, m0, Convention.NORMAL)
        assert float(row[2]) == pytest.approx(expected, rel=1e-15)


def test_csv_roundtrip_bytes(tmp_path):
    cfg = write_config(tmp_path, command="analytic", t_max=5.0, n_points=11, **_EXPLICIT_CSL)
    out = str(tmp_path / "roundtrip.csv")
    assert cli.main([cfg, "--output", out]) == 0
    text = open(out).read()
    lines = text.splitlines()
    rebuilt = []
    for line in lines:
        if line.startswith("#") or "," not in line or line.split(",")[0] == "time":
            rebuilt.append(line)
        else:
            rebuilt.append(",".join(cli._fmt(float(cell)) for cell in line.split(",")))
    assert "\n".join(rebuilt) + "\n" == text


def test_json_format(tmp_path):
    cfg = write_config(tmp_path, command="analytic", t_max=5.0, n_points=7, **_EXPLICIT_CSL)
    out = str(tmp_path / "run.json.out")
    assert cli.main([cfg, "--output", out, "--format", "json"]) == 0
    doc = json.loads(open(out).read())
    assert doc["columns"][0] == "time"
    assert len(doc["rows"]) == 7


def test_domain_error_exit_code(tmp_path):
    # beta < 1/2 QMUPL hits its singular time inside the grid.
    cfg = write_config(
        tmp_path, command="analytic", t_max=4.0, n_points=11,
        m_L=3.0, m_H=4.0, gamma_L=0.0, gamma_H=0.0, model="QMUPL",
        rate=0.1, beta=0.0, m0=1.0, alpha=1.0, d=2,
    )
    assert cli.main([cfg]) == 2


def test_missing_config_exit_code(tmp_path):
    assert cli.main([str(tmp_path / "absent.json")]) == 1


def test_python_m_runs_cli_without_warnings(tmp_path):
    cfg = write_config(tmp_path, command="analytic", t_max=1.0, n_points=3, **_EXPLICIT_QM)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "flavorcollapse", cfg], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "command=analytic" in proc.stdout
