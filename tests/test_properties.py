"""Properties of the CLI contract on drawn explicit-mass ``analytic`` and ``master`` configs.

Hypothesis draws QM, CSL and QMUPL configs whose masses, widths, rates,
lengths and times range over 1e-30 ... 1e30; about one draw in ten puts an
arbitrary number, NaN and infinities included, in place of one key.  Each
config runs through ``cli.main`` as ``analytic`` and as ``master``:

* the exit code is 0, 1 or 2;
* exit 0 writes nothing to stderr, exit 1 one ``error:`` line and exit 2
  one ``domain error:`` line, and no warning is raised;
* every probability written is in [0, 1], up to the 1e-12 of round-off
  that the CLI allows (``cli._PROB_TOL``);
* where both commands exit 0, master and analytic agree to 1e-12;
* a command that exits 0 writes the same table as CSV and as JSON: the
  CSV cells parse to the JSON numbers exactly and its ``#`` lines are the
  JSON ``meta``.

Tier-1 runs a small derandomized profile; ``scripts/property_sweep.py``
runs the same strategy and check over as many examples as asked.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from flavorcollapse import cli

# Settings shared with the long profile, which only raises max_examples.
PROFILE = settings(
    max_examples=200, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
_AGREEMENT = 1e-12

_MAGNITUDE = st.floats(-30.0, 30.0).map(lambda e: 10.0**e)
_COLLAPSE = {
    "rate": _MAGNITUDE,
    "beta": st.floats(0.5, 1.0),
    "m0": _MAGNITUDE,
    "alpha": _MAGNITUDE,
    "d": st.sampled_from([1, 2, 3]),
    "ratio_convention": st.sampled_from(["normal", "inverted"]),
}
_WIDTH = st.one_of(st.just(0.0), _MAGNITUDE)


@st.composite
def configs(draw) -> dict:
    """An explicit-mass route config without its ``command``."""
    m_l = draw(_MAGNITUDE)
    config = {
        "m_L": m_l, "m_H": m_l + draw(_MAGNITUDE), "gamma_L": draw(_WIDTH), "gamma_H": draw(_WIDTH),
        "model": draw(st.sampled_from(["QM", "CSL", "QMUPL"])),
        "t_max": draw(_MAGNITUDE), "n_points": draw(st.integers(2, 5)),
    }
    if config["model"] != "QM":
        config.update({key: draw(strategy) for key, strategy in _COLLAPSE.items()})
    if config["model"] == "CSL":
        config["r_C"] = draw(_MAGNITUDE)
    if draw(st.integers(0, 9)) == 0:
        numeric = sorted(key for key, value in config.items() if not isinstance(value, str))
        config[draw(st.sampled_from(numeric))] = draw(st.floats())
    return config


def run(config: dict, fmt: str = "json") -> tuple[int, str, str]:
    """Exit code, stderr and stdout of one ``cli.main`` run in format ``fmt``; fails on any warning."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "run.json"
        path.write_text(json.dumps(config))
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli.main([str(path), "--format", fmt])
    assert not caught, [f"{w.category.__name__}: {w.message}" for w in caught]
    return code, stderr.getvalue(), stdout.getvalue()


def check_csv_matches_json(config: dict, table: dict) -> None:
    """The CSV output of ``config`` carries exactly the JSON ``table``'s meta, columns and numbers."""
    code, err, text = run(config, "csv")
    assert (code, err) == (0, ""), (code, err)
    lines = text.splitlines()
    assert [line[2:] for line in lines if line.startswith("# ")] == table["meta"]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    assert body[0] == table["columns"]
    assert [[float(cell) for cell in row] for row in body[1:]] == table["rows"]


def check(config: dict) -> None:
    """Every property of the module docstring on ``config`` as ``analytic`` and as ``master``."""
    probs = {}
    for command in ("analytic", "master"):
        command_config = dict(config, command=command)
        code, err, out = run(command_config)
        assert code in (0, 1, 2), (command, code, err)
        if code == 0:
            assert err == "", (command, err)
            table = json.loads(out)
            check_csv_matches_json(command_config, table)
            rows = np.array(table["rows"], dtype=float)
            cols = [table["columns"].index(col) for col in cli._PROB_COLUMNS]
            probs[command] = rows[:, cols]
            assert np.all(np.abs(probs[command] - 0.5) <= 0.5 + cli._PROB_TOL), (command, probs[command])
        else:
            assert err.count("\n") == 1 and err.startswith("error: " if code == 1 else "domain error: "), err
    if len(probs) == 2:
        gap = np.abs(probs["master"] - probs["analytic"]).max()
        assert gap <= _AGREEMENT, f"master and analytic differ by {gap:.3g}"


# m~ >> dm~ at beta = 1/2, where the coherence decays at (lambda/2) dm~^2
# alone, a config whose generator scale overflows a 2-norm, one whose
# (sqrt(4 pi) r_C)^d overflows and one whose lambda_eff m~_H^2 does.
_DWARFED_SPLITTING = dict(
    m_L=480.0, m_H=481.0, gamma_L=0.0, gamma_H=0.0, model="CSL", rate=1.0, r_C=1.0, beta=0.5,
    m0=1.0, alpha=1.0, d=1, ratio_convention="normal", t_max=1.0, n_points=2,
)


@PROFILE
@given(configs())
@example(_DWARFED_SPLITTING)
@example(dict(_DWARFED_SPLITTING, rate=1e10))
@example(dict(
    m_L=147.0, m_H=294.0, gamma_L=0.0, gamma_H=0.0, model="CSL", rate=3.3e29, beta=1.0, m0=2.2e-16,
    alpha=1.0, d=3, r_C=1e-30, ratio_convention="normal", t_max=1.0, n_points=2,
))
@example(dict(
    m_L=3.6e-19, m_H=1.3e28, gamma_L=0.0, gamma_H=0.0, model="CSL", rate=0.0132, beta=0.97, m0=4.8e25,
    alpha=1.0, d=3, r_C=1.3e203, ratio_convention="normal", t_max=1.0, n_points=2,
))
@example(dict(
    m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0, model="CSL", rate=1.0, beta=1.0, m0=1.47e-145,
    alpha=1.0, d=1, r_C=1e-19, ratio_convention="normal", t_max=1.0, n_points=2,
))
def test_route_commands_keep_the_cli_contract(config):
    check(config)
