"""Properties of the CLI contract on drawn explicit-mass ``analytic``, ``master``, ``ensemble`` and ``compare``
configs.

Hypothesis draws QM, CSL and QMUPL configs whose masses, widths, rates,
lengths and times range over 1e-30 ... 1e30; about one draw in ten puts an
arbitrary number, NaN and infinities included, in place of one key.  Each
config runs through ``cli.main`` as ``analytic`` and as ``master``, and as
an exact ``ensemble`` (the default ``family`` equation under CSL) with 2 to
8 trajectories, a drawn seed and a ``dt`` that is present or absent:

* the exit code is 0, 1 or 2, and 1 for every QMUPL ``ensemble``;
* exit 0 writes nothing to stderr, exit 1 one ``error:`` line and exit 2
  one ``domain error:`` line, and no warning is raised;
* every probability written is in [0, 1], up to the 1e-12 of round-off
  that the CLI allows (``cli._PROB_TOL``);
* every ``ensemble`` cell is finite and every standard error nonnegative;
* a CSL ``ensemble`` never writes a zero ``stderr_P_M0_M0`` at t > 0 where
  the closed-form standard error of that mean, from the normal law of the
  phase theta = kappa W_t, exceeds 1e-300;
* where both commands exit 0, master and analytic agree to 1e-12;
* a command that exits 0 writes the same table as CSV and as JSON: the
  CSV cells parse to the JSON numbers exactly and its ``#`` lines are the
  JSON ``meta``;
* an ``ensemble`` that exits 0 writes the same bytes when rerun, with
  ``dt`` removed or added, since the exact equations read none, and with
  ``threads`` 2; one draw in ten takes 2049 to 4100 trajectories, so the
  pool folds at least two batches;
* an ``ensemble`` that exits 0 runs again as ``compare``, which exits 0, 2
  or 3.  At 0 or 3 its stderr is exactly the two ``compare:`` lines, the
  first ending ``status=OK`` at 0 and ``status=FAIL`` at 3; at 2 it is one
  ``domain error:`` line.  A rerun writes the same bytes, and under CSL so
  do the ``imaginary`` and ``stratonovich`` names of the ``family``
  equation.  Exit 0 is not required: the exact gate fails about one run in
  two hundred (README);
* in one draw in four, a CSL config also runs stepped: ``nonlinear`` or
  ``enlarged``, at most 3 grid points and 1 to 64 steps per interval, as
  ``ensemble`` (exit 0, 1 or 2; every probability in [0, 1] at exit 0,
  the same bytes when rerun) and, where that exits 0, as ``compare``
  (exit 0, 2 or 3 with the lines above, the same bytes when rerun).

A second property breaks one key of a drawn config, as ``analytic``,
``master``, ``ensemble`` or ``compare``, with a value that violates its
property in ``run_config.schema.json``: below its ``minimum``, above its
``maximum``, at its ``exclusiveMinimum``, outside its ``enum``, of the
wrong type (a bool, a string for a number, a float for an integer, a
number for a string), NaN, an infinity or an integer beyond the float
range for a number; or it adds an unknown key.  Every such config exits 1
at load with one ``error:`` line, no output and no warning.

Tier-1 runs a small derandomized profile; ``scripts/property_sweep.py``
runs the same strategies and checks over as many examples as asked.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from flavorcollapse import cli
from flavorcollapse.errors import FlavorCollapseError

from conftest import csl_stderr_p_m0_m0

# Settings shared with the long profile, which only raises max_examples.
PROFILE = settings(
    max_examples=200, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# Each schema-violation example runs no route, so fewer of them cover the schema's bounds, enums and types.
VIOLATION_PROFILE = settings(PROFILE, max_examples=80)
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
_SEED = st.integers(0, 2**64 - 1)


@st.composite
def configs(draw, corrupt: bool = True) -> dict:
    """An explicit-mass route config without its ``command``; if ``corrupt``, one draw in ten puts an
    arbitrary number in place of one key."""
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
    if corrupt and draw(st.integers(0, 9)) == 0:
        numeric = sorted(key for key, value in config.items() if not isinstance(value, str))
        config[draw(st.sampled_from(numeric))] = draw(st.floats())
    return config


@st.composite
def ensemble_keys(draw) -> dict:
    """The keys an exact ``ensemble`` run adds to a route config: N, a seed and, in half the draws, a dt."""
    many = draw(st.integers(0, 9)) == 0  # more than one batch of the pool
    keys = {"n_trajectories": draw(st.integers(2049, 4100) if many else st.integers(2, 8)), "seed": draw(_SEED)}
    if draw(st.booleans()):
        keys["dt"] = draw(_MAGNITUDE)
    return keys


@st.composite
def stepped_keys(draw) -> dict | None:
    """In one draw in four, a stepped equation and its steps per grid interval; otherwise None."""
    if draw(st.integers(0, 3)) != 0:
        return None
    return {"equation": draw(st.sampled_from(["nonlinear", "enlarged"])), "substeps": draw(st.integers(1, 64))}


def run(config: dict, fmt: str | None = "json") -> tuple[int, str, str]:
    """Exit code, stderr and stdout of one ``cli.main`` run in format ``fmt`` (None: the config's);
    fails on any warning."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "run.json"
        path.write_text(json.dumps(config))
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli.main([str(path), *(["--format", fmt] if fmt else [])])
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


def run_table(config: dict) -> tuple[int, str, dict | None]:
    """Exit code, output and JSON table (None unless exit 0) of ``config``, checked against the exit
    rules, and against CSV and the probability range at exit 0."""
    code, err, out = run(config)
    assert code in (0, 1, 2), (config["command"], code, err)
    if code != 0:
        assert err.count("\n") == 1 and err.startswith("error: " if code == 1 else "domain error: "), err
        return code, out, None
    assert err == "", (config["command"], err)
    table = json.loads(out)
    check_csv_matches_json(config, table)
    probs = np.array(table["rows"], dtype=float)[:, [table["columns"].index(col) for col in cli._PROB_COLUMNS]]
    assert np.all(np.abs(probs - 0.5) <= 0.5 + cli._PROB_TOL), (config["command"], probs)
    return code, out, table


def check(config: dict, ensemble: dict, stepped: dict | None) -> None:
    """Every property of the module docstring on ``config`` as ``analytic``, ``master``, ``ensemble`` and
    ``compare``, and stepped unless ``stepped`` is None."""
    if stepped is not None and config["model"] == "CSL":
        check_stepped(config, ensemble, **stepped)
    probs = {}
    for command in ("analytic", "master"):
        _, _, table = run_table(dict(config, command=command))
        if table is not None:
            rows = np.array(table["rows"], dtype=float)
            probs[command] = rows[:, [table["columns"].index(col) for col in cli._PROB_COLUMNS]]
    if len(probs) == 2:
        gap = np.abs(probs["master"] - probs["analytic"]).max()
        assert gap <= _AGREEMENT, f"master and analytic differ by {gap:.3g}"

    ensemble_config = dict(config, command="ensemble", **ensemble)
    code, out, table = run_table(ensemble_config)
    if config["model"] == "QMUPL":
        assert code == 1
    if table is None:
        return
    rows = np.array(table["rows"], dtype=float)
    assert np.all(np.isfinite(rows)), rows
    stderrs = [j for j, col in enumerate(table["columns"]) if col.startswith("stderr_")]
    assert np.all(rows[:, stderrs] >= 0.0), rows[:, stderrs]
    if config["model"] == "CSL":
        check_stderr_keeps_its_scale(ensemble_config, table)
    toggled = {key: value for key, value in ensemble_config.items() if key != "dt"}
    if "dt" not in ensemble_config:
        toggled["dt"] = 1.0
    for again in (ensemble_config, toggled, dict(ensemble_config, threads=2)):
        assert run(again) == (0, "", out)
    check_compare(dict(ensemble_config, command="compare"))


def check_stepped(config: dict, ensemble: dict, equation: str, substeps: int) -> None:
    """The exit rules, probability range and rerun bytes of ``config`` as a small stepped ``ensemble`` of
    ``equation`` at ``substeps`` steps per grid interval, and, where that exits 0, as ``compare``."""
    n_points = min(config["n_points"], 3)
    stepped = dict(
        config, command="ensemble", n_points=n_points, equation=equation, seed=ensemble["seed"],
        n_trajectories=min(ensemble["n_trajectories"], 8), dt=config["t_max"] / (n_points - 1) / substeps,
    )
    _, out, table = run_table(stepped)
    if table is None:
        return
    probs = np.array(table["rows"], dtype=float)[:, [table["columns"].index(col) for col in cli._PROB_COLUMNS]]
    assert np.all((probs >= 0.0) & (probs <= 1.0)), probs
    assert run(stepped) == (0, "", out)
    check_compare(dict(stepped, command="compare"))


def check_stderr_keeps_its_scale(config: dict, table: dict) -> None:
    """No t > 0 row of ``table``, the output of the exact CSL ``ensemble`` ``config``, writes a zero
    ``stderr_P_M0_M0`` where the closed-form standard error of its mean exceeds 1e-300."""
    spec = _load(config)
    cells = dict(zip(table["columns"], np.array(table["rows"], dtype=float).T))
    expected = csl_stderr_p_m0_m0(
        spec.meson, spec.collapse, cells["time"], cells["P_L_L"], cells["P_H_H"], spec.n_trajectories
    )
    zero = (cells["time"] > 0.0) & (expected > 1e-300) & (cells["stderr_P_M0_M0"] == 0.0)
    assert not np.any(zero), (expected, cells["stderr_P_M0_M0"])


def check_compare(config: dict) -> None:
    """The exit code, stderr lines and byte identities of ``config``, an exact ``compare`` run."""
    result = run(config)
    code, err, _ = result
    assert code in (0, 2, 3), (code, err)
    lines = err.splitlines(keepends=True)
    if code == 2:
        assert len(lines) == 1 and err.startswith("domain error: "), err
    else:
        assert len(lines) == 2 and all(line.startswith("compare: ") for line in lines), err
        assert lines[0].endswith(" status=OK\n" if code == 0 else " status=FAIL\n"), err
    again = [config]
    if config["model"] == "CSL" and "equation" not in config:
        again += [dict(config, equation=equation) for equation in ("imaginary", "stratonovich")]
    for other in again:
        assert run(other) == result


_PROPS = cli._data("run_config.schema.json")["properties"]
_FINITE = dict(allow_nan=False, allow_infinity=False)
# Violation -> the values of that violation for a schema property of a given type, or False where
# the property cannot be broken that way.
_VIOLATIONS = {
    "below minimum": lambda prop, kind: "minimum" in prop and (
        st.floats(max_value=prop["minimum"], exclude_max=True, **_FINITE) if kind == "number"
        else st.integers(max_value=prop["minimum"] - 1)),
    "above maximum": lambda prop, kind: "maximum" in prop and (
        st.floats(min_value=prop["maximum"], exclude_min=True, **_FINITE) if kind == "number"
        else st.integers(min_value=prop["maximum"] + 1)),
    "at exclusiveMinimum": lambda prop, kind: "exclusiveMinimum" in prop and st.sampled_from(
        [prop["exclusiveMinimum"], float(prop["exclusiveMinimum"]), -float(prop["exclusiveMinimum"])]),
    "outside enum": lambda prop, kind: "enum" in prop and (
        st.text() if kind == "string" else st.integers()).filter(lambda value: value not in prop["enum"]),
    "a bool": lambda prop, kind: st.booleans(),
    "a string for a number": lambda prop, kind: kind == "number" and st.text(),
    "a float for an integer": lambda prop, kind: kind == "integer" and st.floats(),
    "a number for a string": lambda prop, kind: kind == "string" and st.integers() | st.floats(),
    "not finite": lambda prop, kind: kind == "number" and st.sampled_from([math.nan, math.inf, -math.inf]),
    "beyond the float range": lambda prop, kind: kind == "number" and st.sampled_from([10**400, -(10**400)]),
}


@st.composite
def violating_configs(draw) -> tuple[dict, str | None]:
    """A route config that loads, with one key's value replaced by a schema violation, and that key;
    or with an unknown key added, and None.  The violation is drawn first, then a key it can break."""
    config = draw(configs(corrupt=False))
    commands = ["analytic", "master"] + ([] if config["model"] == "QMUPL" else ["ensemble", "compare"])
    config["command"] = draw(st.sampled_from(commands))
    if config["command"] in ("ensemble", "compare"):
        config.update(draw(ensemble_keys()))
    assume(_loads(config))
    violation = draw(st.sampled_from([*_VIOLATIONS, "unknown key"]))
    if violation == "unknown key":
        config[draw(st.text().filter(lambda name: name not in _PROPS))] = 1.0
        return config, None
    breakable = {}
    for key in [*sorted(config), "threads", "format", "output"]:  # the last three take defaults
        prop = _PROPS[key]
        kind = prop.get("type") or ("string" if isinstance(prop["enum"][0], str) else "integer")
        breakable[key] = _VIOLATIONS[violation](prop, kind)
    keys = [key for key, values in breakable.items() if values is not False]
    assume(keys)
    key = draw(st.sampled_from(keys))
    config[key] = draw(breakable[key])
    return config, key


def _load(config: dict) -> cli.RunSpec:
    """``config`` as ``cli.load_config`` resolves it."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "run.json"
        path.write_text(json.dumps(config))
        return cli.load_config(str(path))


def _loads(config: dict) -> bool:
    """Whether ``cli.load_config`` accepts ``config``."""
    try:
        _load(config)
    except FlavorCollapseError:
        return False
    return True


def check_rejected(config: dict, key: str | None) -> None:
    """A config that breaks the schema at ``key`` (None: an unknown key) exits 1 at load with one
    ``error:`` line that names the key, and writes no output and no warning."""
    code, err, out = run(config, fmt=None)
    assert (code, out) == (1, ""), (code, err)
    if key is None:
        (unknown,) = set(config) - set(_PROPS)
        assert err == f"error: unknown config key {unknown!r}\n", err
    else:
        assert re.fullmatch(f"error: (config key '{key}'|{key}) must [^\n]*\n", err), err


# m~ >> dm~ at beta = 1/2, where the coherence decays at (lambda/2) dm~^2
# alone, a config whose generator scale overflows a 2-norm, one whose
# (sqrt(4 pi) r_C)^d overflows and one whose lambda_eff m~_H^2 does.
_DWARFED_SPLITTING = dict(
    m_L=480.0, m_H=481.0, gamma_L=0.0, gamma_H=0.0, model="CSL", rate=1.0, r_C=1.0, beta=0.5,
    m0=1.0, alpha=1.0, d=1, ratio_convention="normal", t_max=1.0, n_points=2,
)


_TWO = dict(n_trajectories=2, seed=0)


@PROFILE
@given(configs(), ensemble_keys(), stepped_keys())
# Stepped at 64 steps, where Euler-Maruyama in H once grew P_H_H past 1.
@example(_DWARFED_SPLITTING, _TWO, dict(equation="enlarged", substeps=64))
@example(dict(_DWARFED_SPLITTING, rate=1e10), _TWO, None)
@example(dict(
    m_L=147.0, m_H=294.0, gamma_L=0.0, gamma_H=0.0, model="CSL", rate=3.3e29, beta=1.0, m0=2.2e-16,
    alpha=1.0, d=3, r_C=1e-30, ratio_convention="normal", t_max=1.0, n_points=2,
), _TWO, None)
@example(dict(
    m_L=3.6e-19, m_H=1.3e28, gamma_L=0.0, gamma_H=0.0, model="CSL", rate=0.0132, beta=0.97, m0=4.8e25,
    alpha=1.0, d=3, r_C=1.3e203, ratio_convention="normal", t_max=1.0, n_points=2,
), _TWO, None)
@example(dict(
    m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0, model="CSL", rate=1.0, beta=1.0, m0=1.47e-145,
    alpha=1.0, d=1, r_C=1e-19, ratio_convention="normal", t_max=1.0, n_points=2,
), _TWO, None)
# P_M0_M0 near 3e-167 at t = 1: the exact kernel's second moments, of order
# P^2, once underflowed and the run wrote stderr_P_M0_M0=0.
@example(dict(
    m_L=10.0, m_H=10.5, gamma_L=0.0, gamma_H=0.0, model="CSL", rate=12.0, beta=1.0, m0=1.0,
    alpha=1.0, d=2, r_C=0.5, ratio_convention="normal", t_max=1.0, n_points=3,
), dict(n_trajectories=50, seed=3), None)
# P_M0_M0 + P_M0_M0bar near 2e-174 at t = 0.4: the asymmetry's delta method
# once squared it to 0 and wrote stderr_asymmetry=nan with exit 0.
@example(dict(m_L=1.0, m_H=2.0, gamma_L=1000.0, gamma_H=1000.0, model="QM", t_max=0.4, n_points=2),
         dict(_TWO, dt=1.0), None)
def test_route_commands_keep_the_cli_contract(config, ensemble, stepped):
    check(config, ensemble, stepped)


# One config of each violation, so that the small profile breaks the schema every way.
_LOADS = dict(_DWARFED_SPLITTING, command="compare", n_trajectories=2, seed=0, dt=0.1)


@VIOLATION_PROFILE
@given(violating_configs())
@example((dict(_LOADS, n_points=1), "n_points"))
@example((dict(_LOADS, beta=1.5), "beta"))
@example((dict(_LOADS, n_points=10**20), "n_points"))
@example((dict(_LOADS, n_trajectories=10**9 + 1), "n_trajectories"))
@example((dict(_LOADS, t_max=0), "t_max"))
@example((dict(_LOADS, equation="heun"), "equation"))
@example((dict(_LOADS, rate=True), "rate"))
@example((dict(_LOADS, m0="1"), "m0"))
@example((dict(_LOADS, n_trajectories=2.0), "n_trajectories"))
@example((dict(_LOADS, model=1), "model"))
@example((dict(_LOADS, alpha=math.nan), "alpha"))
@example((dict(_LOADS, r_C=10**400), "r_C"))
@example((dict(_LOADS, **{"bata\n": 0.5}), None))
def test_schema_violations_exit_1_at_load(case):
    check_rejected(*case)
