import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flavorcollapse import cli, lindblad, sde
from flavorcollapse.analytic import prob_flavor, prob_lifetime
from flavorcollapse.core import Convention, FlavorTarget, MesonParams
from flavorcollapse.errors import CatalogMiss, InvalidParams, ParseError, UnknownKey

from conftest import csl_stderr_p_m0_m0, make_csl


def _schema():
    from importlib import resources

    with resources.files("flavorcollapse.data").joinpath("run_config.schema.json").open() as fh:
        return json.load(fh)


_PROPS = _schema()["properties"]


def write_config(tmp_path, name="run.json", **entries):
    path = tmp_path / name
    path.write_text(json.dumps(entries))
    return str(path)


def read_csv(path):
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return columns, rows


def column(path, name):
    columns, rows = read_csv(path)
    idx = columns.index(name)
    return np.array([float(row[idx]) for row in rows])


_README_CSL = dict(
    m_L=0.5, m_H=1.5, gamma_L=0.0, gamma_H=0.0, model="CSL",
    rate=0.3, r_C=0.5, beta=0.8, m0=1.0, alpha=1.0, d=2,
)
_EXPLICIT_QM = dict(m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0, model="QM")
_EXPLICIT_CSL = dict(
    m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0, model="CSL",
    rate=0.2, r_C=0.4, beta=0.8, m0=1.0, alpha=1.0, d=2,
)
# Collapse-induced widths near 1e154: every flavor probability underflows
# to 0 by t = 1, and the master generators' 2-norms overflow.
_VANISHING_CSL = dict(
    m_L=147.0, m_H=294.0, gamma_L=0.0, gamma_H=0.0, model="CSL",
    rate=3.3e29, beta=1.0, m0=2.2e-16, alpha=1.0, d=3, r_C=1e-30, t_max=1.0, n_points=2,
)
# (sqrt(4 pi) r_C)^d overflows the float range, and lambda_eff m~_H^2 does.
_OVERFLOWING_R_C = dict(
    m_L=3.6e-19, m_H=1.3e28, gamma_L=0.0, gamma_H=0.0, model="CSL",
    rate=0.0132, beta=0.97, m0=4.8e25, alpha=1.0, d=3, r_C=1.3e203, t_max=1.0, n_points=2,
)
_OVERFLOWING_RATE = dict(
    m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0, model="CSL",
    rate=1.0, beta=1.0, m0=1.47e-145, alpha=1.0, d=1, r_C=1e-19, t_max=1.0, n_points=2,
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
        prob_flavor(meson, collapse, FlavorTarget.M0, times),
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
        prob_flavor(meson, collapse, FlavorTarget.M0BAR, times),
        atol=1e-12,
    )
    # All four columns of the kernel route against the analytic command.
    analytic_out = str(tmp_path / "qmupl_analytic.csv")
    cfg = write_config(tmp_path, "analytic.json", **dict(json.loads(Path(cfg).read_text()), command="analytic"))
    assert cli.main([cfg, "--output", analytic_out]) == 0
    for name in cli._PROB_COLUMNS:
        np.testing.assert_allclose(column(out, name), column(analytic_out, name), rtol=0.0, atol=1e-12)


def test_ensemble_bytes_deterministic(tmp_path):
    # Three batches (2048 + 2048 + 4), exact and stepped: the thread pool
    # has batches to split, and two partials would fold alike in either order.
    assert len(sde._batch_bounds(4100)) >= 3
    for equation in ("family", "nonlinear"):
        cfg = write_config(
            tmp_path, command="ensemble", t_max=2.0, n_points=5, n_trajectories=4100,
            seed=7, dt=0.01, equation=equation, **_EXPLICIT_CSL,
        )
        outputs = []
        for run, threads in enumerate(("1", "1", "4")):
            out = tmp_path / f"{equation}{run}.csv"
            assert cli.main([cfg, "--output", str(out), "--threads", threads]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], equation


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(
        tmp_path, command="ensemble", t_max=1.0, n_points=3, n_trajectories=32,
        seed=7, dt=0.01, **_EXPLICIT_CSL,
    )
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert cli.main([cfg, "--output", out_a]) == 0
    assert cli.main([cfg, "--output", out_b, "--seed", "8"]) == 0
    assert Path(out_a).read_bytes() != Path(out_b).read_bytes()


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


def test_qm_ensemble_is_exact_wigner_weisskopf(tmp_path):
    # The QM equation is the lambda = 0 linear equation, sampled exactly:
    # every trajectory is the Wigner-Weisskopf amplitude, so the ensemble
    # has no spread and its means are the analytic probabilities.
    meson = MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.2, gamma_H=0.08)
    cfg = write_config(
        tmp_path, command="ensemble", t_max=4.0, n_points=9, n_trajectories=48, seed=2, dt=0.002,
        m_L=1.0, m_H=2.0, gamma_L=0.2, gamma_H=0.08, model="QM",
    )
    out = tmp_path / "qm.csv"
    assert cli.main([cfg, "--output", str(out)]) == 0
    header = [line for line in out.read_text().splitlines() if line.startswith("# command=ensemble")]
    assert header[0].endswith("seed=2 method=exact")
    # No equation was configured, so the header names none.
    assert "equation=" not in header[0]
    times = column(out, "time")
    expected = {
        "P_M0_M0": prob_flavor(meson, None, FlavorTarget.M0, times),
        "P_M0_M0bar": prob_flavor(meson, None, FlavorTarget.M0BAR, times),
        "P_L_L": prob_lifetime(meson, None, 0, 0, times),
        "P_H_H": prob_lifetime(meson, None, 1, 1, times),
    }
    for name, probs in expected.items():
        np.testing.assert_allclose(column(out, name), probs, rtol=0.0, atol=1e-15)
        assert np.all(column(out, f"stderr_{name}") == 0.0)


@pytest.mark.parametrize("command", ["ensemble", "compare"])
def test_qm_rejects_an_equation(tmp_path, capsys, command):
    # The QM ensemble always runs the lambda = 0 linear equation with the
    # measured widths; a configured equation would name one that never ran.
    cfg = write_config(
        tmp_path, command=command, t_max=4.0, n_points=9, n_trajectories=48, seed=2, dt=0.002,
        m_L=1.0, m_H=2.0, gamma_L=0.2, gamma_H=0.08, model="QM", equation="enlarged",
    )
    assert cli.main([cfg, "--output", str(tmp_path / "qm.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: model QM takes no equation")
    assert not (tmp_path / "qm.csv").exists()


@pytest.mark.parametrize("key, value", [("equation", "enlarged"), ("dt", 0.1), ("n_trajectories", 5)])
@pytest.mark.parametrize("command", ["analytic", "master"])
def test_routes_without_trajectories_reject_ensemble_keys(tmp_path, capsys, command, key, value):
    # analytic and master run no trajectories: an ensemble key would name a
    # scheme or a sample size that never ran.
    cfg = write_config(tmp_path, command=command, **_README_CSL, t_max=1.0, n_points=3, **{key: value})
    assert cli.main([cfg, "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: the {command} command takes no {key}\n"
    assert not (tmp_path / "out.csv").exists()


# A config each command accepts, and a value each key accepts.
_TRAJECTORIES = dict(n_trajectories=16, seed=1, dt=0.05)
_COMMAND_BASES = {
    "analytic": dict(_README_CSL, t_max=1.0, n_points=3),
    "master": dict(_README_CSL, t_max=1.0, n_points=3),
    "ensemble": dict(_README_CSL, t_max=1.0, n_points=3, **_TRAJECTORIES),
    "compare": dict(_README_CSL, t_max=1.0, n_points=3, **_TRAJECTORIES),
    "estimate": dict(m_L=3.0, m_H=4.0, gamma_L=0.9, gamma_H=1.6),
    "bounds": dict(meson="K0", m0_min_MeV=100.0, m0_max_MeV=1000.0, n_points=5),
}
_KEY_VALUES = dict(
    _README_CSL, **_TRAJECTORIES, meson="K0", mesons=["K0", "B0"], m0_MeV=938.272, ratio_convention="inverted",
    t_max=1.0, n_points=3, equation="nonlinear", m0_min=1.0, m0_max=10.0, m0_min_MeV=100.0, m0_max_MeV=1000.0,
)
# Keys a command used to accept and ignore.
_ONCE_IGNORED = [
    ("analytic", "seed"), ("analytic", "m0_min"), ("analytic", "m0_max"),
    ("master", "seed"), ("master", "m0_min_MeV"), ("master", "m0_max_MeV"),
    *(("estimate", key) for key in ("dt", "n_trajectories", "seed", "equation", "model", "rate", "r_C", "beta",
                                     "m0", "m0_MeV", "alpha", "d", "ratio_convention", "t_max", "n_points")),
    *(("bounds", key) for key in ("model", "rate", "t_max", "seed", "dt", "equation")),
]
_NOT_READ = sorted(
    {(command, key) for command in _COMMAND_BASES for key, prop in _PROPS.items() if command not in prop["commands"]}
    | set(_ONCE_IGNORED)
)


@pytest.mark.parametrize("command, key", _NOT_READ, ids=[f"{c}-{k}" for c, k in _NOT_READ])
def test_command_rejects_every_key_it_does_not_read(tmp_path, capsys, command, key):
    # Without the key the config loads; with it the run exits 1 before any
    # value is checked, naming the command and the key, and writes nothing.
    base = dict(command=command, **_COMMAND_BASES[command])
    assert cli.load_config(write_config(tmp_path, "base.json", **base)).command == command
    cfg = write_config(tmp_path, **base, **{key: _KEY_VALUES[key]})
    assert cli.main([cfg, "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: the {command} command takes no {key}\n"
    assert not (tmp_path / "out.csv").exists()


def test_flag_of_a_key_the_command_does_not_read_rejected(tmp_path, capsys):
    # The --seed flag is the seed key: an analytic run names it with the
    # configured keys it does not read, in order.
    cfg = write_config(tmp_path, command="analytic", **_COMMAND_BASES["analytic"], m0_min=1.0, m0_max=10.0)
    assert cli.main([cfg, "--seed", "5", "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == "error: the analytic command takes no m0_min, m0_max, seed\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (dict(mesons=["B0"]), "give either a 'mesons' list or one meson, not both"),
        (dict(m0_min=1.0, m0_max=10.0), "give either m0_min/m0_max (1/s) or m0_min_MeV/m0_max_MeV, not both"),
    ],
    ids=["meson_and_mesons", "m0_range_in_both_units"],
)
def test_bounds_rejects_a_key_its_alternative_would_ignore(tmp_path, capsys, extra, message):
    # Given both, the bounds command used to draw only the mesons list
    # (and only the MeV range), ignoring the other key.
    cfg = write_config(tmp_path, command="bounds", **_COMMAND_BASES["bounds"], **extra)
    assert cli.main([cfg, "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


_BOUNDS_EXPLICIT = dict(command="bounds", m_L=3.0, m_H=4.0, gamma_L=0.9, gamma_H=1.6, n_points=5)


@pytest.mark.parametrize(
    "entries, message",
    [
        (
            dict(_BOUNDS_EXPLICIT, m0_min_MeV=1.0, m0_max_MeV=10.0),
            "MeV ranges apply to catalog runs; explicit runs take m0_min/m0_max in 1/s",
        ),
        (
            dict(command="bounds", m0_min=1.0, m0_max=10.0),
            "the bounds command needs 'meson', 'mesons' or explicit m_L/m_H/gamma_L/gamma_H",
        ),
    ],
    ids=["explicit_meson_MeV_range", "no_meson"],
)
def test_bounds_meson_parameters_and_range_units(tmp_path, capsys, entries, message):
    # Explicit meson parameters are in 1/s, so an MeV range would mix
    # units.  The same explicit run with its range in 1/s writes its curve.
    cfg = write_config(tmp_path, **entries)
    assert cli.main([cfg, "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()
    cfg = write_config(tmp_path, **_BOUNDS_EXPLICIT, m0_min=1.0, m0_max=10.0)
    assert cli.main([cfg, "--output", str(tmp_path / "out.csv")]) == 0
    _, rows = read_csv(tmp_path / "out.csv")
    assert [float(row[1]) for row in rows if row[0] == "custom_normal"][::4] == [1.0, 10.0]


@pytest.mark.parametrize("key, value", [("ratio_convention", "inverted"), ("d", 2)])
@pytest.mark.parametrize("command", ["analytic", "master", "ensemble", "compare"])
def test_qm_rejects_every_collapse_key(tmp_path, capsys, command, key, value):
    # Model QM has no collapse, so neither the mass-ratio convention nor the
    # collapse dimension enters any route.
    trajectories = _TRAJECTORIES if command in ("ensemble", "compare") else {}
    cfg = write_config(tmp_path, command=command, **_EXPLICIT_QM, t_max=1.0, n_points=3, **trajectories, **{key: value})
    assert cli.main([cfg, "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == "error: model QM takes no collapse parameters\n"
    assert not (tmp_path / "out.csv").exists()


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


_MEASURED_CSL = dict(_EXPLICIT_CSL, gamma_L=0.1, gamma_H=0.05)


@pytest.mark.parametrize("config", [_README_CSL, _MEASURED_CSL], ids=["readme", "measured_widths"])
@pytest.mark.parametrize("equation", _PROPS["equation"]["enum"])
def test_compare_accepts_every_csl_equation(tmp_path, config, equation):
    # Under CSL every equation decays through the collapse-induced widths,
    # so each formulation follows the routes' master equation and passes,
    # also where the configured widths are nonzero (and unused).
    cfg = write_config(
        tmp_path, command="compare", **config, equation=equation,
        t_max=2.0, n_points=21, n_trajectories=300, seed=7, dt=0.005,
    )
    assert cli.main([cfg, "--output", str(tmp_path / "cmp.csv")]) == 0


def test_imaginary_is_family_under_csl(tmp_path):
    # With the induced widths the imaginary-noise equation is the family
    # equation: same spec, same noise, same table body byte for byte.
    bodies = []
    for equation in ("family", "imaginary"):
        cfg = write_config(
            tmp_path, command="ensemble", **_MEASURED_CSL, equation=equation,
            t_max=2.0, n_points=21, n_trajectories=200, seed=5, dt=0.005,
        )
        out = tmp_path / f"{equation}.csv"
        assert cli.main([cfg, "--output", str(out)]) == 0
        bodies.append([line for line in out.read_text().splitlines() if not line.startswith("#")])
    assert bodies[0] == bodies[1]


def test_compare_linear_names_write_identical_files(tmp_path):
    # family, imaginary and stratonovich name one linear equation, nonlinear
    # and flavor_decay one nonlinear flavor equation: under CSL each group
    # gives one spec, so one compare file, header and gate included.
    for names in (("family", "imaginary", "stratonovich"), ("nonlinear", "flavor_decay")):
        texts = set()
        for equation in names:
            cfg = write_config(
                tmp_path, command="compare", **_MEASURED_CSL, equation=equation,
                t_max=2.0, n_points=21, n_trajectories=200, seed=5, dt=0.005,
            )
            out = tmp_path / f"{equation}.csv"
            assert cli.main([cfg, "--output", str(out)]) == 0
            texts.add(out.read_bytes())
        assert len(texts) == 1, names


@pytest.mark.parametrize(
    "meson, model",
    [pytest.param(m, "CSL", id=m) for m in ("K0", "D0", "B0", "Bs0")]
    + [pytest.param(m, "QMUPL", id=f"{m}-QMUPL") for m in ("K0", "D0", "B0", "Bs0")],
)
def test_master_matches_analytic_at_catalog_scale(tmp_path, meson, model):
    # The master route takes exp(t S) at each grid time under CSL and
    # evaluates the position kernels under QMUPL, so over the whole default
    # window its probabilities stay within round-off of the closed forms.
    r_C = {"r_C": 1e-7} if model == "CSL" else {}
    cfg = write_config(
        tmp_path, command="master", meson=meson, model=model,
        rate=2.2e-10, **r_C, beta=0.8, m0_MeV=938.272, alpha=1e-14, d=3, n_points=400,
    )
    spec = cli.load_config(cfg)
    master, analytic = cli._master_probs(spec, spec.grid), cli._analytic_probs(spec, spec.grid)
    for col in cli._PROB_COLUMNS:
        assert np.abs(master[col] - analytic[col]).max() <= 3e-15, col


@pytest.mark.parametrize("rate", [1e10, 1e30])
@pytest.mark.parametrize("meson", ["K0", "D0", "B0", "Bs0"])
def test_master_keeps_the_decoherence_when_masses_dwarf_their_splitting(tmp_path, meson, rate):
    # At beta = 1/2 the collapse induces no widths: the coherence decays at
    # (lambda/2) dm~^2 alone, with m~ up to 1e15 dm~.  Written as the
    # difference of terms of size lambda m~^2 it would be lost to round-off
    # (master P_M0_M0bar 0.00113 for analytic's 0.5 on K0 at rate 1e30); the
    # centred collapse operator carries dm~ itself.
    cfg = write_config(
        tmp_path, command="master", meson=meson, model="CSL",
        rate=rate, r_C=1e-7, beta=0.5, m0_MeV=938.272, alpha=1e-14, d=3, n_points=50,
    )
    spec = cli.load_config(cfg)
    master, analytic = cli._master_probs(spec, spec.grid), cli._analytic_probs(spec, spec.grid)
    for col in cli._PROB_COLUMNS:
        assert np.abs(master[col] - analytic[col]).max() <= 1e-15, col


_DWARFED_SPLITTING = dict(
    m_L=480.0, m_H=481.0, gamma_L=0.0, gamma_H=0.0, model="CSL", rate=1.0, r_C=1.0, beta=0.5, m0=1.0,
    alpha=1.0, d=1, t_max=1.0, n_points=2, n_trajectories=200, dt=0.01, seed=1,
)


def test_compare_passes_when_masses_dwarf_their_splitting(tmp_path, capsys):
    # m~ = 480 against a splitting of 1: a master coherence rate that is a
    # difference of lambda m~^2 terms misses by 1.1e-12, above the 1e-12
    # master gate, though every route describes the same physics.
    cfg = write_config(tmp_path, command="compare", **_DWARFED_SPLITTING)
    assert cli.main([cfg, "--output", str(tmp_path / "out.csv")]) == 0
    summary = capsys.readouterr().err.splitlines()[0]
    assert float(re.search("master_max_residual=(\\S+)", summary).group(1)) <= 1e-15


def _compare_ensemble_probs(cfg, out):
    # The ensemble route's probabilities of a compare run: analytic plus the written residual.
    spec = cli.load_config(cfg)
    analytic = cli._analytic_probs(spec, spec.grid)
    return {col: analytic[col] + column(out, f"res_ensemble_{col}") for col in cli._PROB_COLUMNS}


def test_enlarged_compare_loads_when_masses_dwarf_their_splitting(tmp_path, capsys):
    # The config loads and its stepped run keeps the norm of the enlarged
    # state from H, since H is taken as an exact phase: Euler-Maruyama in H
    # once grew P_H_H to 1 + 1.0e-2 here and exited 2.
    cfg = write_config(tmp_path, command="compare", **_DWARFED_SPLITTING, equation="enlarged")
    out = str(tmp_path / "out.csv")
    assert cli.main([cfg, "--output", out]) == 0
    assert capsys.readouterr().err.startswith("compare: ")
    for col, probs in _compare_ensemble_probs(cfg, out).items():
        assert np.all((probs >= 0.0) & (probs <= 1.0)), (col, probs)


@pytest.mark.parametrize("dt", [0.01, 0.001])
@pytest.mark.parametrize("equation", ["nonlinear", "enlarged"])
@pytest.mark.parametrize(
    "system",
    [dict(_README_CSL, beta=0.5, t_max=1.0, n_points=3, n_trajectories=8, seed=7), _DWARFED_SPLITTING],
    ids=["readme", "dwarfed_splitting"],
)
def test_stepped_mass_eigenstates_keep_their_norm_at_beta_half(tmp_path, system, equation, dt):
    # At beta 1/2 with zero widths nothing decays, and a mass eigenstate is a
    # fixed point of the collapse noise, so P_L_L and P_H_H are 1 at every t
    # and dt.  An Euler-Maruyama step in H multiplied |psi|^2 by 1 + (h dm)^2.
    cfg = write_config(tmp_path, command="ensemble", **dict(system, dt=dt), equation=equation)
    out = str(tmp_path / "out.csv")
    assert cli.main([cfg, "--output", out]) == 0
    for col in ("P_L_L", "P_H_H"):
        assert np.all(column(out, col) == 1.0), (col, column(out, col))


@pytest.mark.parametrize(
    "config",
    [dict(_README_CSL, t_max=6.0, n_points=121, n_trajectories=300, seed=7, dt=0.0015), _DWARFED_SPLITTING],
    ids=["readme", "dwarfed_splitting"],
)
@pytest.mark.parametrize("equation", _PROPS["equation"]["enum"])
def test_every_equation_is_a_label_on_the_routes_master_equation(tmp_path, config, equation):
    # The ensemble describes the physics of the analytic and master routes by
    # construction: each flavor equation carries the routes' generators bit
    # for bit, and the enlarged one embeds them, so that the flavor block of
    # its superoperator rounds only in sqrt(K)^2.
    spec = cli.load_config(write_config(tmp_path, command="compare", **config, equation=equation))
    route, own = cli._route_master_spec(spec), cli._sde_spec(spec).master
    if equation == "enlarged":
        flavor = [i * own.dim + j for i in range(2) for j in range(2)]
        route_s = lindblad.build_superoperator(route)
        gap = np.abs(lindblad.build_superoperator(own)[np.ix_(flavor, flavor)] - route_s).max()
        assert gap <= 1e-15 * np.abs(route_s).max()
        return
    np.testing.assert_array_equal(own.hamiltonian, route.hamiltonian)
    np.testing.assert_array_equal(own.anticommutator, route.anticommutator)
    assert len(own.lindblads) == len(route.lindblads)
    for a, b in zip(own.lindblads, route.lindblads):
        np.testing.assert_array_equal(a, b)


def test_a_grid_beyond_the_schema_bound_is_rejected_at_load(tmp_path, capsys):
    # 1e20 points once reached np.linspace and ended in a ValueError traceback.
    cfg = write_config(tmp_path, command="analytic", **_EXPLICIT_QM, t_max=1.0, n_points=10**20)
    assert cli.main([cfg, "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == "error: n_points must be at most 1000000\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["analytic", "master", "ensemble", "compare"])
def test_csl_beta_below_half_rejected_by_every_route(tmp_path, capsys, command):
    # beta < 1/2 gives negative collapse-induced widths, for which no route
    # is physical; every route command rejects it at load with one message,
    # that of the schema's bound on beta.
    trajectories = dict(n_trajectories=40, seed=7, dt=0.005) if command in ("ensemble", "compare") else {}
    cfg = write_config(tmp_path, command=command, **dict(_README_CSL, beta=0.3), t_max=6.0, n_points=21, **trajectories)
    assert cli.main([cfg, "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == "error: beta must be at least 0.5\n"


@pytest.mark.parametrize("command", ["analytic", "master"])
@pytest.mark.parametrize("t_max", [1.0, 6.0])
def test_qmupl_beta_below_half_rejected_at_load(tmp_path, capsys, command, t_max):
    # Under QMUPL too, beta < 1/2 makes each lifetime factor exceed 1 for
    # every t > 0, so no route yields a probability: the load rejects it
    # (exit 1) before a route fails on it (exit 2).
    qmupl = {key: value for key, value in _README_CSL.items() if key != "r_C"}
    cfg = write_config(tmp_path, command=command, **dict(qmupl, model="QMUPL", beta=0.3), t_max=t_max, n_points=121)
    assert cli.main([cfg, "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == "error: beta must be at least 0.5\n"


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


def test_compare_catalog_scale_kaon_ensemble_gate_can_fail(tmp_path, monkeypatch):
    # At catalog scale the floor stays below the size of a probability, so a
    # shifted ensemble fails the gate.  The exactly sampled family equation
    # has the round-off base alone.
    cfg = write_config(
        tmp_path, command="compare", meson="K0", model="CSL",
        rate=2.2e-10, r_C=1e-7, beta=0.8, m0_MeV=938.272, alpha=1e-14, d=3,
        n_points=9, n_trajectories=64, seed=3, dt=2.5e-13,
    )
    spec = cli.load_config(cfg)
    times = spec.grid
    eq_spec = cli._sde_spec(spec)
    _, dt = cli._ensemble_stats(spec, eq_spec, times)
    assert cli._discretization_floor(eq_spec, times, dt).max() < 0.06
    # The allowance of a stepped equation, from the gauged rates, stays below it too.
    stepped = cli._sde_spec(dataclasses.replace(spec, equation="nonlinear"))
    assert cli._discretization_floor(stepped, times, spec.dt).max() < 0.06
    true_stats = cli._ensemble_stats

    def shifted(spec, eq_spec, times):
        stats, dt = true_stats(spec, eq_spec, times)
        moved = {}
        for name, s in stats.items():
            means = s.means.copy()
            # Every cell moves by 0.2 towards 1/2, so it stays a probability.
            means[1:] += np.where(means[1:] < 0.5, 0.2, -0.2)
            moved[name] = dataclasses.replace(s, means=means)
        return moved, dt

    monkeypatch.setattr(cli, "_ensemble_stats", shifted)
    assert cli.main([cfg, "--output", str(tmp_path / "k0.csv")]) == 3


@pytest.mark.parametrize("equation", ["family", "stratonovich"])
def test_compare_linear_gate_catches_shifted_column(tmp_path, monkeypatch, equation):
    # The linear equations are sampled exactly, so their gate has only the
    # 1e-12 round-off floor: P_M0_M0 moved by 0.05 over the second half of
    # the window fails it.  A 4 dt t r^2 discretization floor (0.018 to
    # 0.036 there) would hide the shift.
    cfg = write_config(
        tmp_path, command="compare", **_README_CSL, equation=equation,
        t_max=6.0, n_points=31, n_trajectories=1000, seed=7, dt=0.0015,
    )
    true_stats = cli._ensemble_stats

    def shifted(spec, eq_spec, times):
        stats, dt = true_stats(spec, eq_spec, times)
        means = stats["M0"].means.copy()
        means[times >= 3.0, stats["M0"].labels.index("P_M0")] += 0.05
        return dict(stats, M0=dataclasses.replace(stats["M0"], means=means)), dt

    monkeypatch.setattr(cli, "_ensemble_stats", shifted)
    assert cli.main([cfg, "--output", str(tmp_path / "cmp.csv")]) == 3


# A small exact CSL compare: README physics on 31 points, N 200.  Over seeds
# 0-9999 it failed 55 times (rate 0.0055).  With 0.005 added to P_M0_M0 at
# every t > 0 (towards 1/2), it failed 1700 of seeds 0-1999 (power 0.85).
_SMALL_COMPARE = dict(command="compare", **_README_CSL, t_max=6.0, n_points=31, n_trajectories=200, dt=0.0015)


def _compare_failures(tmp_path, seeds):
    cfg = write_config(tmp_path, **_SMALL_COMPARE)
    codes = [cli.main([cfg, "--seed", str(seed), "--output", str(tmp_path / "cmp.csv")]) for seed in seeds]
    assert set(codes) <= {0, 3}
    return codes.count(3)


def test_exact_gate_size(tmp_path):
    # At the measured size 0.0055, 300 seeds fail between 0 and 8 times in
    # the central 99.99 % of the binomial distribution.
    assert _compare_failures(tmp_path, range(300)) <= 8


def test_exact_gate_power(tmp_path, monkeypatch):
    # At the measured power 0.85, 100 seeds fail between 70 and 97 times
    # in the central 99.99 % of the binomial distribution.
    true_stats = cli._ensemble_stats

    def shifted(spec, eq_spec, times):
        stats, dt = true_stats(spec, eq_spec, times)
        means = stats["M0"].means.copy()
        column = means[1:, stats["M0"].labels.index("P_M0")]
        column += np.where(column < 0.5, 0.005, -0.005)
        return dict(stats, M0=dataclasses.replace(stats["M0"], means=means)), dt

    monkeypatch.setattr(cli, "_ensemble_stats", shifted)
    assert 70 <= _compare_failures(tmp_path, range(1000, 1100)) <= 97


@pytest.mark.parametrize(
    "equation, scheme",
    [("family", "method=exact"), ("imaginary", "method=exact"), ("stratonovich", "method=exact"),
     ("nonlinear", "dt=0.01"), ("flavor_decay", "dt=0.01")],
)
@pytest.mark.parametrize("command", ["ensemble", "compare"])
def test_ensemble_header_names_the_scheme(tmp_path, command, equation, scheme):
    cfg = write_config(
        tmp_path, command=command, **_README_CSL, equation=equation,
        t_max=1.0, n_points=3, n_trajectories=16, seed=1, dt=0.01,
    )
    out = tmp_path / "out.csv"
    assert cli.main([cfg, "--output", str(out)]) in (0, 3)
    header = [line for line in out.read_text().splitlines() if line.startswith(f"# command={command}")]
    assert header[0].endswith(f"seed=1 {scheme}")


@pytest.mark.parametrize(
    "t_max, n_points, dt, n_sub",
    [(6.0, 121, 0.0015, 34), (1.0, 21, 0.0025, 20), (5.0, 11, 0.01, 50), (1.0, 4, 0.1, 4), (2.0, 3, 0.03, 34),
     (1.0, 11, 0.5, 1)],
)
def test_ensemble_step_is_the_largest_divisor_of_the_interval_within_dt(tmp_path, t_max, n_points, dt, n_sub):
    # Exact multiples keep their count; otherwise the count rounds up: the
    # README grid (0.05 / 0.0015 = 33.3) steps 34 times at 0.05 / 34.
    cfg = write_config(
        tmp_path, command="ensemble", **_README_CSL, equation="nonlinear",
        t_max=t_max, n_points=n_points, n_trajectories=2, seed=1, dt=dt,
    )
    out = tmp_path / "out.csv"
    assert cli.main([cfg, "--output", str(out)]) == 0
    header = next(line for line in out.read_text().splitlines() if line.startswith("# command=ensemble"))
    interval = np.linspace(0.0, t_max, n_points)[1]
    assert header.endswith(f" dt={cli._fmt(interval / n_sub)}")
    assert interval / n_sub <= dt
    assert n_sub == 1 or interval / (n_sub - 1) > dt


@pytest.mark.parametrize("command", ["ensemble", "compare"])
def test_exact_equation_reads_no_dt(tmp_path, capsys, command):
    # The exact family equation takes no step, so a subnormal dt, which
    # once overflowed the step count with a traceback, writes the bytes
    # of any other dt.
    outputs = []
    for dt in (0.0015, 1e-320):
        cfg = write_config(
            tmp_path, command=command, **_README_CSL, t_max=6.0, n_points=21, n_trajectories=40, seed=7, dt=dt,
        )
        out = tmp_path / f"{dt}.csv"
        assert cli.main([cfg, "--output", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().err))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["ensemble", "compare"])
def test_stepped_equation_rejects_a_dt_with_no_finite_step_count(tmp_path, capsys, command):
    cfg = write_config(
        tmp_path, command=command, **_README_CSL, equation="nonlinear",
        t_max=6.0, n_points=21, n_trajectories=40, seed=7, dt=1e-320,
    )
    assert cli.main([cfg, "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: dt={cli._fmt(1e-320)} leaves no finite number of steps in a grid interval\n"
    )
    assert not (tmp_path / "out.csv").exists()


def test_stepped_equation_rejects_more_than_2_31_euler_steps(tmp_path, capsys):
    # 20 grid intervals of 3e299 steps each, which once ran until killed.
    cfg = write_config(
        tmp_path, command="ensemble", **_README_CSL, equation="nonlinear",
        t_max=6.0, n_points=21, n_trajectories=40, seed=7, dt=1e-300,
    )
    assert cli.main([cfg, "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == "error: dt=1e-300 asks for 6e+300 Euler steps per trajectory, more than 2**31\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["ensemble", "compare"])
@pytest.mark.parametrize(
    "physics", [dict(_README_CSL, equation="family"), dict(_README_CSL, equation="imaginary"), _EXPLICIT_QM],
    ids=["family", "imaginary", "qm"],
)
def test_exact_run_needs_no_dt(tmp_path, capsys, command, physics):
    # Only a stepped equation reads dt, so an exact run without it writes
    # the bytes of the same run with it.
    outputs = []
    for extra in ({"dt": 0.0015}, {}):
        cfg = write_config(
            tmp_path, command=command, **physics, **extra, t_max=6.0, n_points=21, n_trajectories=40, seed=7,
        )
        out = tmp_path / f"{len(extra)}.csv"
        assert cli.main([cfg, "--output", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().err))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("equation", ["nonlinear", "flavor_decay", "enlarged"])
@pytest.mark.parametrize("command", ["ensemble", "compare"])
def test_stepped_run_requires_dt(tmp_path, capsys, command, equation):
    cfg = write_config(
        tmp_path, command=command, **_README_CSL, equation=equation,
        t_max=6.0, n_points=21, n_trajectories=40, seed=7,
    )
    assert cli.main([cfg, "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == "error: config key 'dt' is required for this command\n"
    assert not (tmp_path / "out.csv").exists()


def test_ensemble_asymmetry_stderr_stays_finite_where_probabilities_are_tiny(tmp_path, capsys):
    # By t = 0.4 widths of 1000 leave P_M0_M0 + P_M0_M0bar near 2e-174, whose
    # square underflows: the delta method once divided by it and wrote a
    # NaN.  The QM ensemble has no spread, so the asymmetry's error is 0.
    cfg = write_config(
        tmp_path, command="ensemble", m_L=1.0, m_H=2.0, gamma_L=1000.0, gamma_H=1000.0, model="QM",
        t_max=0.4, n_points=2, n_trajectories=2, dt=1.0,
    )
    out = tmp_path / "out.csv"
    assert cli.main([cfg, "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    total = column(out, "P_M0_M0") + column(out, "P_M0_M0bar")
    assert 0.0 < total[-1] < 1e-154
    assert np.array_equal(column(out, "stderr_asymmetry"), [0.0, 0.0])


# The README CSL system with a heavier, faster-decaying meson: by t = 1,
# P_M0_M0 is near 3e-167 and the spread of its trajectories, of order P^2,
# lies below the float range.
_TINY_CSL = dict(
    command="ensemble", **dict(_README_CSL, m_L=10.0, m_H=10.5, rate=12.0, beta=1.0),
    t_max=1.0, n_points=3, n_trajectories=50, seed=3,
)


def test_exact_ensemble_stderrs_keep_their_scale_where_probabilities_are_tiny(tmp_path, capsys):
    # The exact kernel once reduced the second moments on the raw scale,
    # and this run wrote stderr_P_M0_M0=0 and stderr_asymmetry=0 at t = 1
    # although its 50 trajectories differ.
    cfg = write_config(tmp_path, **_TINY_CSL)
    out = tmp_path / "out.csv"
    assert cli.main([cfg, "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    times, p_m0 = column(out, "time"), column(out, "P_M0_M0")
    assert 0.0 < p_m0[-1] < 1e-160
    assert column(out, "stderr_asymmetry")[-1] > 0.0
    spec = cli.load_config(cfg)
    expected = csl_stderr_p_m0_m0(
        spec.meson, spec.collapse, times, column(out, "P_L_L"), column(out, "P_H_H"), spec.n_trajectories
    )
    assert expected[-1] > 1e-180
    # N = 50 draws estimate the spread to within about 10 %.
    np.testing.assert_allclose(column(out, "stderr_P_M0_M0")[1:], expected[1:], rtol=0.3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
@pytest.mark.parametrize("command", ["ensemble", "compare"])
def test_ensemble_stderr_that_is_not_finite_exits_two(tmp_path, monkeypatch, capsys, command, bad):
    # A standard error is checked like a probability: one that is not
    # finite and nonnegative is a domain error, never written as a cell.
    cfg = write_config(
        tmp_path, command=command, **_README_CSL, t_max=2.0, n_points=5, n_trajectories=40, seed=7,
    )
    true_probs = cli._ensemble_probs

    def corrupted(stats):
        means, errs = true_probs(stats)
        errs["P_L_L"] = np.where(np.arange(len(errs["P_L_L"])) == 2, bad, errs["P_L_L"])
        return means, errs

    monkeypatch.setattr(cli, "_ensemble_probs", corrupted)
    out = tmp_path / "out.csv"
    assert cli.main([cfg, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"domain error: ensemble route: stderr_P_L_L={cli._fmt(bad)} at time=1 "
        "is not a finite nonnegative standard error\n"
    )
    assert not out.exists()
    # The README compare with the nonlinear equation: 120 intervals of 34 steps.
    readme = write_config(
        tmp_path, "readme.json", command="compare", **_README_CSL, equation="nonlinear",
        t_max=6.0, n_points=121, n_trajectories=4000, seed=7, dt=0.0015,
    )
    assert cli.load_config(readme).dt == 0.0015


def test_step_cap_admits_exactly_2_31_steps(tmp_path):
    # One grid interval of length 1: dt = 2**-31 is 2**31 steps, a hair less is more.
    base = dict(command="ensemble", **_README_CSL, equation="nonlinear", t_max=1.0, n_points=2, n_trajectories=2)
    cli.load_config(write_config(tmp_path, **base, dt=2.0**-31))
    with pytest.raises(InvalidParams, match="Euler steps per trajectory, more than 2"):
        cli.load_config(write_config(tmp_path, **base, dt=2.0**-31 * (1 - 1e-6)))


def test_compare_wide_bytes_independent_of_threads(tmp_path):
    # The benchmark's wide stratonovich compare, sampled exactly: 10^4
    # trajectories in five batches.
    cfg = write_config(
        tmp_path, command="compare", **_README_CSL, equation="stratonovich",
        t_max=6.0, n_points=401, n_trajectories=10000, seed=11, dt=0.015,
    )
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"wide{threads}.csv"
        assert cli.main([cfg, "--output", str(out), "--threads", threads]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_compare_missing_output_directory_exits_before_computing(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(sde, "ensemble_evolve", lambda *args, **kwargs: calls.append(args))
    cfg = write_config(
        tmp_path, command="compare", **_README_CSL, t_max=1.0, n_points=5, n_trajectories=16, seed=1, dt=0.05,
    )
    assert cli.main([cfg, "--output", str(tmp_path / "missing" / "out.csv")]) == 1
    assert calls == []
    assert capsys.readouterr().err.startswith("error:")


def test_failed_output_write_exits_one(tmp_path, capsys):
    # The directory exists, so the path passes the load check; opening a
    # directory for writing fails at the end of the run.
    cfg = write_config(tmp_path, command="analytic", **_EXPLICIT_QM, t_max=1.0, n_points=5)
    assert cli.main([cfg, "--output", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write output")


def test_compare_catalog_qm_kaon_finite(tmp_path):
    # The QM ensemble samples the gauged mass operator diag(0, delta_m);
    # its phase at the absolute K0 mass (~7.6e23 1/s) would carry no
    # significant digits.
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
    _, (_, _, master_max), (_, _, ratio_max) = cli.compare_routes(times, probs, broken, broken, errs, floor)
    assert np.isnan(master_max) and np.isnan(ratio_max)
    assert not master_max < cli._MASTER_RESIDUAL_TOL
    assert not ratio_max < cli._ENSEMBLE_RATIO_TOL


def _beta_mismatch():
    """Times, CSL probabilities at beta 0.9 and 0.6, and ensemble errors."""
    meson = MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0)
    times = np.linspace(0.0, 4.0, 9)

    def probs(collapse):
        return {
            "P_M0_M0": prob_flavor(meson, collapse, FlavorTarget.M0, times),
            "P_M0_M0bar": prob_flavor(meson, collapse, FlavorTarget.M0BAR, times),
            "P_L_L": np.ones_like(times),
            "P_H_H": np.ones_like(times),
        }

    good = probs(make_csl(beta=0.9, rate=0.3))
    bad = probs(make_csl(beta=0.6, rate=0.3))
    errs = {name: np.full_like(times, 1e-4) for name in good}
    return times, good, bad, errs


def test_compare_routes_negative_control():
    # Deliberately mismatched beta between routes trips the ratio gate.
    times, good, bad, errs = _beta_mismatch()
    _, (_, _, master_max), (_, _, ratio_max) = cli.compare_routes(
        times, good, good, bad, errs, np.full_like(times, 1e-12)
    )
    assert master_max < 1e-12
    assert ratio_max > cli._ENSEMBLE_RATIO_TOL


def test_compare_locates_worst_cells():
    # The reported column and time are those of an independent argmax over
    # the residuals laid out as (time, column).
    times, good, bad, errs = _beta_mismatch()
    floor = np.full_like(times, 1e-12)
    names = list(cli._PROB_COLUMNS)
    shifted = dict(good, P_L_L=good["P_L_L"] - 0.01 * times)
    _, master, ensemble = cli.compare_routes(times, good, shifted, bad, errs, floor)

    ratios = np.column_stack([np.abs(bad[c] - good[c]) / np.maximum(errs[c], floor) for c in names])
    k, j = np.unravel_index(np.argmax(ratios), ratios.shape)
    assert ensemble == (names[j], times[k], ratios.max())
    assert names[j] in ("P_M0_M0", "P_M0_M0bar") and 0.0 < times[k]

    residuals = np.column_stack([np.abs(shifted[c] - good[c]) for c in names])
    k, j = np.unravel_index(np.argmax(residuals), residuals.shape)
    assert master == (names[j], times[k], residuals.max())
    assert (names[j], times[k]) == ("P_L_L", 4.0)


def test_compare_location_line_follows_summary(tmp_path, capsys):
    cfg = write_config(
        tmp_path, command="compare", t_max=3.0, n_points=7, n_trajectories=48,
        seed=5, dt=0.005, **_EXPLICIT_CSL,
    )
    assert cli.main([cfg, "--output", str(tmp_path / "cmp.csv")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("compare: master_max_residual=") and lines[0].endswith("status=OK")
    assert lines[1].startswith("compare: worst master residual in P_")
    assert "worst ensemble ratio in P_" in lines[1]
    assert "worst" not in (tmp_path / "cmp.csv").read_text()


@pytest.mark.parametrize(
    "config",
    [
        dict(_README_CSL, t_max=6.0, n_points=121, dt=0.0015),
        dict(m_L=1.0, m_H=2.0, gamma_L=0.2, gamma_H=0.08, model="QM", t_max=4.0, n_points=9, dt=0.002),
    ],
    ids=["readme_csl", "qm_widths"],
)
def test_one_probability_table_across_commands(tmp_path, config):
    # compare's residual columns are exactly the differences of the outputs
    # of the analytic, master and ensemble commands on the same config.
    run = dict(config, n_trajectories=40, seed=7)
    # analytic and master take no trajectory keys.
    route_run = {key: value for key, value in run.items() if key not in ("dt", "n_trajectories", "seed")}
    outputs = {}
    for command in ("analytic", "master", "ensemble", "compare"):
        keys = run if command in ("ensemble", "compare") else route_run
        cfg = write_config(tmp_path, f"{command}.json", command=command, **keys)
        outputs[command] = str(tmp_path / f"{command}.csv")
        assert cli.main([cfg, "--output", outputs[command]]) == 0
    for name in cli._PROB_COLUMNS:
        analytic = column(outputs["analytic"], name)
        assert np.all(
            column(outputs["compare"], f"res_master_{name}") == column(outputs["master"], name) - analytic
        ), name
        assert np.all(
            column(outputs["compare"], f"res_ensemble_{name}") == column(outputs["ensemble"], name) - analytic
        ), name


def test_compare_exit_code_three_on_route_mismatch(tmp_path, monkeypatch):
    # Force the analytic route off so the full command path returns 3.
    cfg = write_config(
        tmp_path, command="compare", t_max=3.0, n_points=7, n_trajectories=48,
        seed=5, dt=0.005, **_EXPLICIT_CSL,
    )
    true_analytic = cli._analytic_probs

    def skewed(spec, times):
        probs = true_analytic(spec, times)
        # Towards 1/2, so every cell stays a probability.
        return {name: values + np.where(values < 0.5, 0.05, -0.05) for name, values in probs.items()}

    monkeypatch.setattr(cli, "_analytic_probs", skewed)
    assert cli.main([cfg, "--output", str(tmp_path / "cmp.csv")]) == 3


# The README system at beta 1/2: no collapse-induced width, so nothing decays.
_UNDAMPED_STEPPED = dict(
    _README_CSL, beta=0.5, t_max=6.0, n_points=121, n_trajectories=16, seed=7, dt=0.0015,
)


@pytest.mark.parametrize(
    "command, equation", [("ensemble", "nonlinear"), ("compare", "nonlinear"), ("ensemble", "enlarged")]
)
def test_stepped_run_at_beta_half_keeps_every_probability(tmp_path, capsys, command, equation):
    # Euler-Maruyama in H grew |psi|^2 by 1 + (dm h)^2 per step, and these
    # runs exited 2 with P_H_H = 1.0000735 at t = 0.05.  With H taken as an
    # exact phase every probability stays in [0, 1].  (An enlarged compare at
    # N 16 meets the small-N size of the 4-sigma gate, README.)
    cfg = write_config(tmp_path, command=command, **_UNDAMPED_STEPPED, equation=equation)
    out = str(tmp_path / "out.csv")
    assert cli.main([cfg, "--output", out]) == 0
    capsys.readouterr()
    if command == "ensemble":
        probs = {col: column(out, col) for col in cli._PROB_COLUMNS}
    else:
        probs = _compare_ensemble_probs(cfg, out)
    for col, values in probs.items():
        assert np.all((values >= 0.0) & (values <= 1.0)), (col, values)


@pytest.mark.parametrize("command", ["ensemble", "compare"])
def test_ensemble_probability_above_one_exits_two(tmp_path, monkeypatch, capsys, command):
    # A stepped ensemble mean above 1 is a domain error: one line, exit 2 and
    # no output.  The means of the state from H are pushed past 1 for t > 0.
    cfg = write_config(tmp_path, command=command, **_UNDAMPED_STEPPED, equation="nonlinear")
    true_stats = cli._ensemble_stats

    def inflated(spec, eq_spec, times):
        stats, dt = true_stats(spec, eq_spec, times)
        means = stats["H"].means.copy()
        means[1:, stats["H"].labels.index("P_H")] *= 1.0001
        return dict(stats, H=dataclasses.replace(stats["H"], means=means)), dt

    monkeypatch.setattr(cli, "_ensemble_stats", inflated)
    out = tmp_path / "out.csv"
    assert cli.main([cfg, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("domain error: ensemble route: P_H_H=1.0001 at time=0.05")
    assert not out.exists()


# The README CSL system at m_L 10, m_H 10.5, rate 12 and beta 1: the fastest
# decay of its master equation, K_HH + (L^dag L)_HH, is about 422.
_FAST_DECAY_CSL = dict(
    _README_CSL, m_L=10.0, m_H=10.5, rate=12.0, beta=1.0, t_max=1.0, n_points=3, n_trajectories=50, seed=3,
)


@pytest.mark.parametrize("command", ["ensemble", "compare"])
def test_stepped_decay_beyond_the_euler_bound_is_rejected_at_load(tmp_path, capsys, command):
    # At dt 0.01 one Euler step multiplies the M_H component by about
    # 1 - 0.01 * 422 / 2 < -1; the ensemble once ran and exited 2 with
    # P_M0_M0=5699.76 at t = 0.5.
    cfg = write_config(tmp_path, command=command, equation="nonlinear", dt=0.01, **_FAST_DECAY_CSL)
    with pytest.raises(InvalidParams):
        cli.load_config(cfg)
    out = tmp_path / "out.csv"
    assert cli.main([cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: dt=0\.01 steps h=0\.01 at the fastest decay rate 422\.\d+: h rate = 4\.2\d* > 4, .*\n",
                        err)
    assert not out.exists()
    # Within the bound (h rate = 0.21) the run goes through.
    small = write_config(tmp_path, "small.json", command="ensemble", equation="nonlinear", dt=0.0005, **_FAST_DECAY_CSL)
    assert cli.main([small, "--output", str(out)]) == 0


@pytest.mark.parametrize(
    "route, command, bad",
    [
        ("analytic", "analytic", np.nan),
        ("master", "master", 1.0 + 1e-9),
        ("analytic", "compare", -1e-9),
        ("master", "compare", np.inf),
    ],
)
def test_route_probability_outside_unit_interval_exits_two(tmp_path, monkeypatch, capsys, route, command, bad):
    extra = dict(n_trajectories=48, seed=5, dt=0.005) if command == "compare" else {}
    cfg = write_config(tmp_path, command=command, t_max=3.0, n_points=7, **extra, **_EXPLICIT_CSL)
    name = f"_{route}_probs"
    true_route = getattr(cli, name)

    def faulty(spec, times):
        probs = true_route(spec, times)
        probs["P_L_L"] = probs["P_L_L"].copy()
        probs["P_L_L"][4] = bad
        return probs

    monkeypatch.setattr(cli, name, faulty)
    assert cli.main([cfg, "--output", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == (
        f"domain error: {route} route: P_L_L={cli._fmt(bad)} at time=2 is not a probability in [0, 1]\n"
    )


def _unavailable(*args, **kwargs):
    raise AssertionError("a route reached a dense routine its closed forms replace")


def _without_dense_routines(monkeypatch):
    for owner, name in ((np.linalg, "eigvalsh"), (np.linalg, "norm"), (lindblad, "master_rhs")):
        monkeypatch.setattr(owner, name, _unavailable)


@pytest.mark.parametrize(
    "config",
    [
        dict(command="master", **_README_CSL),
        dict(command="master", **dict(_EXPLICIT_QM, gamma_L=0.3, gamma_H=0.1)),
        dict(command="compare", **_README_CSL, n_trajectories=200, seed=7),
    ],
    ids=["csl_master", "qm_master", "csl_exact_compare"],
)
def test_master_route_runs_without_lapack_or_master_rhs(tmp_path, monkeypatch, config):
    # The mass-basis algebra of the master route is closed-form: the
    # superoperator entry by entry, the propagation by a plain einsum and
    # the density-matrix check by the 2x2 eigenvalue formula.
    cfg = write_config(tmp_path, **config, t_max=6.0, n_points=61)
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    assert cli.main([cfg, "--output", str(want)]) == 0
    _without_dense_routines(monkeypatch)
    assert cli.main([cfg, "--output", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize(
    "bad, found",
    [
        (np.array([[0.5, 0.6j], [-0.6j, 0.5]]), (1.0, -0.1)),
        (np.diag([0.7, 0.5]), (1.2, 0.5)),
    ],
    ids=["negative_eigenvalue", "trace_above_one"],
)
@pytest.mark.parametrize("command", ["master", "compare"])
def test_master_state_that_is_not_a_density_matrix_exits_two(tmp_path, monkeypatch, capsys, command, bad, found):
    # Every probability column of either state lies in [0, 1] (all 0.5 for
    # the first), so only the check on the propagated states catches them,
    # before compare reaches its gate.
    extra = dict(n_trajectories=48, seed=5, dt=0.005) if command == "compare" else {}
    cfg = write_config(tmp_path, command=command, t_max=3.0, n_points=7, **extra, **_EXPLICIT_CSL)
    true_integrate = lindblad.integrate_master

    def faulty(spec, rho0, t_grid):
        rhos = true_integrate(spec, rho0, t_grid)
        rhos[:, 4] = bad
        return rhos

    monkeypatch.setattr(lindblad, "integrate_master", faulty)
    _without_dense_routines(monkeypatch)
    out = tmp_path / "out.csv"
    assert cli.main([cfg, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    prefix = "domain error: master route: the state from M0 at time=2 is not a density matrix (trace "
    assert err.startswith(prefix) and err.endswith(")\n"), err
    reported = err[len(prefix) : -2].split(", smallest eigenvalue ")
    assert tuple(map(float, reported)) == pytest.approx(found, abs=1e-12)
    assert not out.exists()


def test_schema_file_matches_loader_keys(tmp_path):
    schema = _schema()
    assert schema["additionalProperties"] is False
    assert schema["properties"]["seed"]["maximum"] == 2**64 - 1
    # Every property names the commands that take it, each a value of the command enum.
    for key, prop in schema["properties"].items():
        assert prop["commands"] and set(prop["commands"]) <= set(schema["properties"]["command"]["enum"]), key

    # Every numeric bound of the schema is the loader's: the bound itself
    # (or the next float above an exclusive one) loads, the next value
    # beyond it is rejected.  beta spans [1/2, 1] under QMUPL and CSL alike.
    ensemble = dict(command="ensemble", **_README_CSL, t_max=1.0, n_points=3, n_trajectories=2, dt=0.1)
    qmupl = dict(command="analytic", **dict(_README_CSL, model="QMUPL"), t_max=1.0, n_points=3)
    checked = set()
    for key, prop in schema["properties"].items():
        base = qmupl if key == "beta" else ensemble
        for bound, direction in (("minimum", -1), ("maximum", 1), ("exclusiveMinimum", -1)):
            if bound not in prop:
                continue
            edge = prop[bound]
            if bound == "exclusiveMinimum":
                inside, outside = float(np.nextafter(edge, np.inf)), edge
            elif prop.get("type") == "integer":
                inside, outside = edge, edge + direction
            else:
                inside, outside = edge, float(np.nextafter(edge, direction * np.inf))
            assert cli.load_config(write_config(tmp_path, **dict(base, **{key: inside}))) is not None
            with pytest.raises(InvalidParams):
                cli.load_config(write_config(tmp_path, **dict(base, **{key: outside})))
            checked.add(key)
    assert checked == {"beta", "t_max", "n_points", "n_trajectories", "seed", "dt", "threads"}
    assert cli.load_config(write_config(tmp_path, **dict(ensemble, beta=0.5))) is not None
    with pytest.raises(InvalidParams, match="beta must be at least 0.5"):
        cli.load_config(write_config(tmp_path, **dict(ensemble, beta=float(np.nextafter(0.5, -np.inf)))))


_ENUM_KEYS = sorted(key for key, prop in _PROPS.items() if "enum" in prop)


@pytest.mark.parametrize("key", _ENUM_KEYS)
def test_value_outside_each_enum_rejected(tmp_path, capsys, key):
    # Every enum of the schema is the loader's: a value outside it exits 1
    # with one line naming the key and the values it takes.
    assert _ENUM_KEYS == ["command", "d", "equation", "format", "model", "ratio_convention"]
    enum = _PROPS[key]["enum"]
    run = dict(command="compare", **_README_CSL, t_max=1.0, n_points=3, **_TRAJECTORIES)
    assert cli.load_config(write_config(tmp_path, **run)).command == "compare"
    cfg = write_config(tmp_path, **dict(run, **{key: 4 if isinstance(enum[0], int) else "bogus"}))
    assert cli.main([cfg, "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: {key} must be one of {', '.join(map(str, enum))}\n"
    assert not (tmp_path / "out.csv").exists()


# Where a resolved run keeps each key that has a schema default.
_RESOLVED = {
    "ratio_convention": lambda spec: spec.convention.value,
    "d": lambda spec: spec.collapse.d,
    "n_points": lambda spec: spec.n_points,
    "seed": lambda spec: spec.seed,
    "equation": lambda spec: spec.equation,
    "threads": lambda spec: spec.threads,
    "format": lambda spec: spec.fmt,
}


@pytest.mark.parametrize("key", sorted(_RESOLVED))
def test_absent_key_resolves_to_its_schema_default(tmp_path, key):
    assert {key for key, prop in _PROPS.items() if "default" in prop} == set(_RESOLVED)
    run = dict(command="ensemble", **_README_CSL, t_max=1.0, **_TRAJECTORIES)
    run.pop(key, None)
    assert _RESOLVED[key](cli.load_config(write_config(tmp_path, **run))) == _PROPS[key]["default"]


def test_schema_equation_enum_is_the_factory_table():
    # Each schema name labels the routes' master equation with an SdeEquation.
    assert _PROPS["equation"]["enum"] == list(cli._EQUATIONS)
    assert {sde.SdeEquation(label) for label in cli._EQUATIONS.values()} == set(sde.SdeEquation)


@pytest.mark.parametrize("flag, key, value", [("--seed", "seed", -1), ("--seed", "seed", 2**64), ("--threads", "threads", 0)])
def test_flag_and_config_key_validated_alike(tmp_path, capsys, flag, key, value):
    # A bad seed in the config used to reach NoiseConfig and exit 2.
    run = dict(command="ensemble", **_EXPLICIT_CSL, t_max=1.0, n_points=3, n_trajectories=4, dt=0.1)
    assert cli.main([write_config(tmp_path, "flag.json", **run), flag, str(value)]) == 1
    by_flag = capsys.readouterr().err
    assert cli.main([write_config(tmp_path, "key.json", **run, **{key: value})]) == 1
    assert capsys.readouterr().err == by_flag
    assert by_flag.startswith("error: ")


@pytest.mark.parametrize("key", ["t_max", "dt", "m0"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), 10**400])
def test_non_finite_config_number_rejected(tmp_path, capsys, key, value):
    # json.load reads Infinity and NaN; an infinite dt used to pass compare
    # with status=OK, stepping at the grid interval.
    run = dict(command="compare", **_EXPLICIT_CSL, t_max=1.0, n_points=3, n_trajectories=4, dt=0.1, seed=1)
    run[key] = value
    assert cli.main([write_config(tmp_path, **run), "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: config key '{key}' must be a finite number\n"


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
    text = Path(out).read_text()
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
    doc = json.loads(Path(out).read_text())
    assert doc["columns"][0] == "time"
    assert len(doc["rows"]) == 7


def test_domain_error_exit_code(tmp_path):
    # Every flavor probability underflows to 0 by the last grid point, so
    # the asymmetry is undefined.
    cfg = write_config(tmp_path, command="analytic", **_VANISHING_CSL)
    assert cli.main([cfg]) == 2


def test_missing_config_exit_code(tmp_path):
    assert cli.main([str(tmp_path / "absent.json")]) == 1


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read config .*: Is a directory"),  # the path is a directory
        (b'{"command": "\xff"}', "config is not UTF-8 text: invalid start byte at byte 13"),
        (b"[" * 100_000 + b"]" * 100_000, "config nests too deeply to parse"),
    ],
    ids=["directory", "not_utf8", "nested_too_deeply"],
)
def test_unreadable_config_exits_1_with_an_error_line(tmp_path, capsys, content, message):
    path = tmp_path / "run.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert cli.main([str(path)]) == 1
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)


def _cli_env() -> dict:
    """The environment of a child interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_python_m_runs_cli_without_warnings(tmp_path):
    cfg = write_config(tmp_path, command="analytic", t_max=1.0, n_points=3, **_EXPLICIT_QM)
    proc = subprocess.run(
        [sys.executable, "-m", "flavorcollapse", cfg], capture_output=True, text=True, env=_cli_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "command=analytic" in proc.stdout


_VANISHING = (_VANISHING_CSL, 2, "domain error: flavor probabilities vanish at t = 1\n")
# The time is rendered like every other route error, with 17 digits, so a
# grid time that is no short decimal reads as the float it is.
_VANISHING_AT_A_TENTH = (
    dict(_VANISHING_CSL, t_max=0.1), 2, "domain error: flavor probabilities vanish at t = 0.10000000000000001\n"
)
_NO_EFFECTIVE_RATE = (_OVERFLOWING_R_C, 1, "error: r_C gives no finite effective rate gamma / (sqrt(4 pi) r_C)^d\n")
_NO_INDUCED_RATE = (
    _OVERFLOWING_RATE, 1, "error: the collapse-induced rate lambda_eff m~^2 of a mass state is not finite\n"
)


# The id prefix of each case; the vanishing config keeps the bare command ids.
_ERROR_CASES = {
    "": _VANISHING, "vanishing_at_a_tenth-": _VANISHING_AT_A_TENTH,
    "r_C_overflow-": _NO_EFFECTIVE_RATE, "rate_overflow-": _NO_INDUCED_RATE,
}


@pytest.mark.parametrize(
    "command, case",
    [
        pytest.param(command, case, id=prefix + command)
        for prefix, case in _ERROR_CASES.items()
        for command in ("analytic", "master")
    ],
)
def test_domain_error_is_the_only_stderr_line_with_warnings_as_errors(tmp_path, command, case):
    # No numpy warning precedes the error: the master generators are checked
    # elementwise, so their huge scale overflows no norm, and the loader
    # rejects an effective or induced rate beyond the float range before a
    # route computes with it.
    config, code, stderr = case
    cfg = write_config(tmp_path, command=command, **config)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "flavorcollapse", cfg],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert proc.returncode == code
    assert proc.stderr == stderr


_IMPORT_PROBE = """
import json, sys
from flavorcollapse import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

_CATALOG_CSL = dict(meson="K0", rate=2.2e-10, r_C=1e-7, beta=0.8, m0_MeV=938.272, alpha=1e-14, d=3)


@pytest.mark.parametrize(
    ("config", "loaded", "absent"),
    [
        (dict(command="master", model="CSL", n_points=20, **_CATALOG_CSL),
         {"flavorcollapse.lindblad"}, {"flavorcollapse.sde", "flavorcollapse.analytic", "numpy.random"}),
        (dict(command="master", model="QMUPL", n_points=20, **_CATALOG_CSL),
         {"flavorcollapse.lindblad"}, {"flavorcollapse.sde", "flavorcollapse.analytic", "numpy.random"}),
        (dict(command="bounds", mesons=["K0", "B0"], m0_min_MeV=100.0, m0_max_MeV=1e4, n_points=5),
         {"flavorcollapse.analytic"},
         {"flavorcollapse.sde", "flavorcollapse.lindblad", "flavorcollapse.operators"}),
        (dict(command="analytic", **_README_CSL, t_max=1.0, n_points=5),
         {"flavorcollapse.analytic"},
         {"flavorcollapse.sde", "flavorcollapse.lindblad", "flavorcollapse.operators"}),
        (dict(command="compare", **_README_CSL, t_max=1.0, n_points=5, n_trajectories=16, seed=1, dt=0.05),
         {"flavorcollapse.sde", "flavorcollapse.analytic"}, set()),
    ],
    ids=["master_csl", "master_qmupl", "bounds", "analytic", "compare"],
)
def test_command_loads_only_the_routes_it_runs(tmp_path, config, loaded, absent):
    # A fresh interpreter, so that modules other tests imported do not count.
    cfg = write_config(tmp_path, **config)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, cfg, "--output", str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0
    modules = set(report["modules"])
    assert loaded <= modules
    assert not absent & modules


_LOAD_PROBE = """
import json, sys
from flavorcollapse import cli
cli.load_config(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""


@pytest.mark.parametrize(
    "config",
    [
        dict(command="compare", **_README_CSL, t_max=1.0, n_points=5, n_trajectories=16, seed=1, dt=0.05),
        dict(command="ensemble", **_README_CSL, t_max=1.0, n_points=5, n_trajectories=16, dt=0.05,
             equation="nonlinear"),
        dict(command="compare", **_EXPLICIT_QM, t_max=1.0, n_points=5, n_trajectories=16),
    ],
    ids=["compare_csl", "ensemble_stepped", "compare_qm"],
)
def test_loading_a_config_imports_no_route_module(tmp_path, config):
    # Loading validates the config and builds no equation; the run builds it.
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE, write_config(tmp_path, **config)],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(json.loads(proc.stdout.splitlines()[-1]))
    routes = {"flavorcollapse.sde", "flavorcollapse.lindblad", "flavorcollapse.operators", "numpy.random"}
    assert not routes & modules


_EXPLICIT_CSL_MEV = {key: value for key, value in _EXPLICIT_CSL.items() if key != "m0"}


@pytest.mark.parametrize(
    "config, reads",
    [
        (dict(command="compare", **_README_CSL, t_max=1.0, n_points=5, n_trajectories=16), False),
        (dict(command="analytic", **_EXPLICIT_QM, t_max=1.0, n_points=5), False),
        (dict(_BOUNDS_EXPLICIT, m0_min=1.0, m0_max=10.0), False),
        (dict(command="estimate", m_L=3.0, m_H=4.0, gamma_L=0.9, gamma_H=1.6), False),
        (dict(command="master", model="CSL", n_points=20, **_CATALOG_CSL), True),
        (dict(command="bounds", mesons=["K0", "B0"], m0_min_MeV=100.0, m0_max_MeV=1e4, n_points=5), True),
        (dict(command="analytic", **_EXPLICIT_CSL_MEV, m0_MeV=938.272), True),
    ],
    ids=["compare", "analytic_qm", "bounds", "estimate", "catalog_master", "catalog_bounds", "explicit_m0_MeV"],
)
def test_load_config_reads_the_catalog_only_for_a_key_that_needs_it(tmp_path, monkeypatch, config, reads):
    read = []
    data = cli._data
    monkeypatch.setattr(cli, "_data", lambda name: read.append(name) or data(name))
    path = write_config(tmp_path, **config)
    if "m0_MeV" in config and "meson" not in config:
        with pytest.raises(InvalidParams, match="^m0_MeV applies to catalog runs; explicit runs take m0 in 1/s$"):
            cli.load_config(path)
    else:
        cli.load_config(path)
    assert ("meson_catalog.json" in read) is reads


def test_library_call_never_freezes_the_heap(tmp_path):
    cfg = write_config(tmp_path, command="analytic", t_max=1.0, n_points=3, **_EXPLICIT_QM)
    frozen = gc.get_freeze_count()
    assert cli.main([cfg, "--output", str(tmp_path / "out.csv")]) == 0
    assert cli.main([str(tmp_path / "absent.json")]) == 1
    assert gc.get_freeze_count() == frozen


_FREEZE_PROBE = """
import gc, sys
from flavorcollapse import cli
code = cli.main()
print(gc.get_freeze_count(), code)
"""


def test_entry_point_freezes_the_heap_after_the_command(tmp_path):
    cfg = write_config(tmp_path, command="analytic", t_max=1.0, n_points=3, **_EXPLICIT_QM)
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, "-c", _FREEZE_PROBE, cfg, "--output", str(out)],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    frozen, code = map(int, proc.stdout.split())
    assert code == 0 and frozen > 0
    assert out.read_text().startswith("# ")


@pytest.mark.parametrize(
    "config",
    [
        dict(command="master", model="CSL", n_points=400, **_CATALOG_CSL),
        dict(command="compare", **_README_CSL, t_max=1.0, n_points=5, n_trajectories=16, seed=1, dt=0.05),
    ],
    ids=["catalog_k0_csl_master", "compare"],
)
def test_python_m_writes_the_bytes_of_a_library_call(tmp_path, capsys, config):
    # The process entry point freezes its heap at the end; nothing it writes changes.
    cfg = write_config(tmp_path, **config)
    code = cli.main([cfg, "--output", str(tmp_path / "lib.csv")])
    err = capsys.readouterr().err
    proc = subprocess.run(
        [sys.executable, "-m", "flavorcollapse", cfg, "--output", str(tmp_path / "proc.csv")],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)
    assert (tmp_path / "proc.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
