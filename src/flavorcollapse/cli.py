"""Run-configuration ingestion, command dispatch and bit-stable output.

One positional argument names a flat JSON configuration (schema shipped
as ``data/run_config.schema.json``); ``--output``, ``--seed``,
``--threads`` and ``--format`` override the corresponding keys.  Every
command is a pure function of the configuration bytes and the bundled
meson catalog: floats are rendered with 17 significant digits, so
re-parsing and re-rendering an output reproduces it byte for byte, and
``--threads`` never changes output bytes.

Exit codes: 0 success, 1 usage/configuration error, 2 domain error,
3 comparison failure.

Unit handling: explicit meson parameters and ``m0`` are natural units
(1/s).  Catalog runs give masses in MeV and convert exactly once at
load, echoing the conversion constant as a header comment; spatial
collapse constants combine into the effective rate without conversion.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import analytic, lindblad, sde
from .analytic import DynamicsModel
from .core import (
    Basis,
    CollapseParams,
    Convention,
    FlavorTarget,
    MesonParams,
    Model,
    QuantumState,
)
from .core import mass_ratios
from .errors import (
    CatalogMiss,
    ComparisonFailure,
    DegenerateDenominator,
    FlavorCollapseError,
    InvalidParams,
    NoRealRoot,
    ParseError,
    UnknownKey,
)
from .operators import decay_operator

__all__ = ["RunSpec", "load_config", "main", "run", "compare_routes"]

_SCHEMA_KEYS = {
    "command", "meson", "mesons", "m_L", "m_H", "gamma_L", "gamma_H",
    "model", "rate", "r_C", "beta", "m0", "m0_MeV", "ratio_convention",
    "d", "alpha", "t_max", "n_points", "n_trajectories", "seed", "dt",
    "equation", "threads", "output", "format",
    "m0_min", "m0_max", "m0_min_MeV", "m0_max_MeV",
}
_COMMANDS = ("analytic", "master", "ensemble", "compare", "estimate", "bounds")
_EQUATIONS = ("family", "flavor_decay", "imaginary", "stratonovich", "nonlinear", "enlarged")

_MASTER_RESIDUAL_TOL = 1e-12
_ENSEMBLE_RATIO_TOL = 4.0


def _catalog() -> dict:
    with resources.files("flavorcollapse.data").joinpath("meson_catalog.json").open() as fh:
        return json.load(fh)


def _meson_from_catalog(catalog: dict, key: str) -> tuple[MesonParams, list[str]]:
    entry = catalog["mesons"].get(key)
    if entry is None:
        raise CatalogMiss(f"meson '{key}' not in catalog (have: {', '.join(sorted(catalog['mesons']))})")
    hbar = catalog["hbar_MeV_s"]
    m_l = entry["mass_MeV"] / hbar
    m_h = m_l + entry["delta_m_per_s"]
    meson = MesonParams(m_L=m_l, m_H=m_h, gamma_L=entry["gamma_L_per_s"], gamma_H=entry["gamma_H_per_s"])
    notes = [
        f"unit conversion: 1 MeV = {_fmt(1.0 / hbar)} 1/s (hbar = {_fmt(hbar)} MeV s), applied once at load",
        f"meson {key}: delta_m requested {_fmt(entry['delta_m_per_s'])} 1/s, realized {_fmt(meson.delta_m)} 1/s",
    ]
    return meson, notes


@dataclass
class RunSpec:
    """Fully resolved parameters of one CLI run."""

    command: str
    meson: MesonParams | None = None
    meson_label: str = "custom"
    mesons: list[tuple[str, MesonParams]] = field(default_factory=list)
    model: DynamicsModel | None = None
    collapse: CollapseParams | None = None
    t_max: float | None = None
    n_points: int = 400
    n_trajectories: int = 0
    seed: int = 0
    dt: float | None = None
    equation: str = "family"
    threads: int = 1
    output: str | None = None
    fmt: str = "csv"
    convention: Convention = Convention.NORMAL
    m0_range: tuple[float, float] | None = None
    header_notes: list[str] = field(default_factory=list)

    @property
    def grid(self) -> np.ndarray:
        t_max = self.t_max
        if t_max is None:
            if self.meson.gamma_bar > 0.0:
                t_max = 10.0 / self.meson.gamma_bar
            else:
                t_max = 10.0 * 2.0 * math.pi / self.meson.delta_m
        return np.linspace(0.0, t_max, self.n_points)


def _get(cfg: dict, key: str, typ, required: bool = False, default=None):
    if key not in cfg:
        if required:
            raise InvalidParams(f"config key '{key}' is required for this command")
        return default
    value = cfg[key]
    if typ is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if typ is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if typ is str and isinstance(value, str):
        return value
    raise InvalidParams(f"config key '{key}' must be of type {typ.__name__}")


def load_config(path: str) -> RunSpec:
    """Parse and validate a run configuration against the published schema."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ParseError("config must be a flat JSON object")
    for key in cfg:
        if key not in _SCHEMA_KEYS:
            raise UnknownKey(f"unknown config key '{key}'")

    command = _get(cfg, "command", str, required=True)
    if command not in _COMMANDS:
        raise InvalidParams(f"command must be one of {', '.join(_COMMANDS)}")
    spec = RunSpec(command=command)
    catalog = _catalog()
    used_catalog = False

    explicit = [k for k in ("m_L", "m_H", "gamma_L", "gamma_H") if k in cfg]
    if "meson" in cfg and explicit:
        raise InvalidParams("give either a catalog 'meson' or explicit m_L/m_H/gamma_L/gamma_H, not both")
    if "meson" in cfg:
        spec.meson_label = _get(cfg, "meson", str)
        spec.meson, notes = _meson_from_catalog(catalog, spec.meson_label)
        spec.header_notes.extend(notes)
        used_catalog = True
    elif explicit:
        if len(explicit) != 4:
            raise InvalidParams("explicit meson parameters require all of m_L, m_H, gamma_L, gamma_H")
        spec.meson = MesonParams(
            m_L=_get(cfg, "m_L", float),
            m_H=_get(cfg, "m_H", float),
            gamma_L=_get(cfg, "gamma_L", float),
            gamma_H=_get(cfg, "gamma_H", float),
        )
        spec.header_notes.append("explicit meson parameters taken as natural units (1/s), no conversion")

    if "mesons" in cfg:
        if command != "bounds":
            raise InvalidParams("'mesons' list applies to the bounds command only")
        names = cfg["mesons"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise InvalidParams("'mesons' must be a list of catalog keys")
        for name in names:
            meson, notes = _meson_from_catalog(catalog, name)
            spec.mesons.append((name, meson))
            spec.header_notes.extend(notes)
        used_catalog = True
    elif spec.meson is not None:
        spec.mesons = [(spec.meson_label, spec.meson)]

    convention = _get(cfg, "ratio_convention", str, default="normal")
    if convention not in ("normal", "inverted"):
        raise InvalidParams("ratio_convention must be 'normal' or 'inverted'")
    spec.convention = Convention(convention)

    model_name = _get(cfg, "model", str, default=None)
    if model_name is not None:
        if model_name not in ("QM", "QMUPL", "CSL"):
            raise InvalidParams("model must be QM, QMUPL or CSL")
        spec.model = DynamicsModel(model_name)

    if command in ("analytic", "master", "ensemble", "compare"):
        if spec.meson is None:
            raise InvalidParams(f"the {command} command needs meson parameters")
        if spec.model is None:
            raise InvalidParams(f"the {command} command needs a 'model'")
        if spec.model is not DynamicsModel.QM:
            if "m0" in cfg and "m0_MeV" in cfg:
                raise InvalidParams("give either m0 (1/s) or m0_MeV, not both")
            if "m0_MeV" in cfg:
                m0 = _get(cfg, "m0_MeV", float) / catalog["hbar_MeV_s"]
                if not used_catalog:
                    raise InvalidParams("m0_MeV applies to catalog runs; explicit runs take m0 in 1/s")
            else:
                m0 = _get(cfg, "m0", float, required=True)
            spec.collapse = CollapseParams(
                model=Model(spec.model.value),
                rate=_get(cfg, "rate", float, required=True),
                beta=_get(cfg, "beta", float, required=True),
                m0=m0,
                alpha=_get(cfg, "alpha", float, required=True),
                d=_get(cfg, "d", int, default=3),
                r_C=_get(cfg, "r_C", float, default=None),
                ratio_convention=spec.convention,
            )
        elif any(k in cfg for k in ("rate", "r_C", "beta", "m0", "m0_MeV", "alpha")):
            raise InvalidParams("model QM takes no collapse parameters")

    if command in ("ensemble", "compare"):
        if spec.model is DynamicsModel.QMUPL:
            raise InvalidParams(
                "the ensemble route is undefined for QMUPL: its flavor-space reduction is not closed"
            )
        spec.n_trajectories = _get(cfg, "n_trajectories", int, required=True)
        if spec.n_trajectories < 2:
            raise InvalidParams("n_trajectories must be at least 2")
        spec.dt = _get(cfg, "dt", float, required=True)
        if not spec.dt > 0.0:
            raise InvalidParams("dt must be positive")

    if command == "bounds":
        if not spec.mesons:
            raise InvalidParams("the bounds command needs a catalog 'meson' or a 'mesons' list")
        if "m0_min_MeV" in cfg or "m0_max_MeV" in cfg:
            hbar = catalog["hbar_MeV_s"]
            lo = _get(cfg, "m0_min_MeV", float, required=True) / hbar
            hi = _get(cfg, "m0_max_MeV", float, required=True) / hbar
        else:
            lo = _get(cfg, "m0_min", float, required=True)
            hi = _get(cfg, "m0_max", float, required=True)
        if not (0.0 < lo < hi):
            raise InvalidParams("m0 range must be positive and increasing")
        spec.m0_range = (lo, hi)

    if command == "estimate" and spec.meson is None:
        raise InvalidParams("the estimate command needs meson parameters")

    spec.t_max = _get(cfg, "t_max", float, default=None)
    if spec.t_max is not None and not spec.t_max > 0.0:
        raise InvalidParams("t_max must be positive")
    spec.n_points = _get(cfg, "n_points", int, default=400)
    if spec.n_points < 2:
        raise InvalidParams("n_points must be at least 2")
    spec.seed = _get(cfg, "seed", int, default=0)
    equation = _get(cfg, "equation", str, default="family")
    if equation not in _EQUATIONS:
        raise InvalidParams(f"equation must be one of {', '.join(_EQUATIONS)}")
    spec.equation = equation
    spec.threads = _get(cfg, "threads", int, default=1)
    if spec.threads < 1:
        raise InvalidParams("threads must be at least 1")
    spec.output = _get(cfg, "output", str, default=None)
    fmt = _get(cfg, "format", str, default="csv")
    if fmt not in ("csv", "json"):
        raise InvalidParams("format must be 'csv' or 'json'")
    spec.fmt = fmt
    return spec


# ----------------------------------------------------------------------
# output rendering

def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return f"{float(x):.17g}"


@dataclass
class Table:
    meta: list[str]
    columns: list[str]
    rows: list[list]

    def render(self, fmt: str) -> str:
        if fmt == "json":
            doc = {"meta": self.meta, "columns": self.columns, "rows": self.rows}
            return json.dumps(doc, default=float) + "\n"
        lines = [f"# {line}" for line in self.meta]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(cell) for cell in row))
        return "\n".join(lines) + "\n"


def _write(table: Table, spec: RunSpec) -> None:
    text = table.render(spec.fmt)
    if spec.output:
        with open(spec.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _safe_asymmetry(p_same: np.ndarray, p_flip: np.ndarray, times: np.ndarray) -> np.ndarray:
    denom = p_same + p_flip
    bad = ~np.isfinite(denom) | (denom <= 0.0)
    if np.any(bad):
        t_bad = times[np.argmax(bad)]
        raise DegenerateDenominator(f"flavor probabilities vanish at t = {t_bad:g}")
    return (p_same - p_flip) / denom


# ----------------------------------------------------------------------
# probability engines per route

_PROB_COLUMNS = ("P_M0_M0", "P_M0_M0bar", "P_L_L", "P_H_H")


def _analytic_probs(spec: RunSpec, times: np.ndarray) -> dict[str, np.ndarray]:
    meson, collapse = spec.meson, spec.collapse
    if spec.model is DynamicsModel.QM:
        return {
            "P_M0_M0": analytic.prob_flavor_qm(meson, FlavorTarget.M0, times),
            "P_M0_M0bar": analytic.prob_flavor_qm(meson, FlavorTarget.M0BAR, times),
            "P_L_L": analytic.prob_lifetime_qm(meson, 0, 0, times),
            "P_H_H": analytic.prob_lifetime_qm(meson, 1, 1, times),
        }
    if spec.model is DynamicsModel.QMUPL:
        return {
            "P_M0_M0": analytic.prob_flavor_qmupl(meson, collapse, FlavorTarget.M0, times),
            "P_M0_M0bar": analytic.prob_flavor_qmupl(meson, collapse, FlavorTarget.M0BAR, times),
            "P_L_L": analytic.prob_lifetime_qmupl(meson, collapse, 0, 0, times),
            "P_H_H": analytic.prob_lifetime_qmupl(meson, collapse, 1, 1, times),
        }
    return {
        "P_M0_M0": analytic.prob_flavor_csl(meson, collapse, FlavorTarget.M0, times),
        "P_M0_M0bar": analytic.prob_flavor_csl(meson, collapse, FlavorTarget.M0BAR, times),
        "P_L_L": analytic.prob_lifetime_csl(meson, collapse, 0, 0, times),
        "P_H_H": analytic.prob_lifetime_csl(meson, collapse, 1, 1, times),
    }


def _master_probs(spec: RunSpec, times: np.ndarray) -> dict[str, np.ndarray]:
    meson, collapse = spec.meson, spec.collapse
    if spec.model is DynamicsModel.QMUPL:
        m0_state = QuantumState.m0()
        return {
            "P_M0_M0": lindblad.probs_from_kernels(Model.QMUPL, meson, collapse, m0_state, m0_state, times),
            "P_M0_M0bar": lindblad.probs_from_kernels(
                Model.QMUPL, meson, collapse, m0_state, QuantumState.m0bar(), times
            ),
            "P_L_L": lindblad.probs_from_kernels(
                Model.QMUPL, meson, collapse, QuantumState.mass_eigenstate(0), QuantumState.mass_eigenstate(0), times
            ),
            "P_H_H": lindblad.probs_from_kernels(
                Model.QMUPL, meson, collapse, QuantumState.mass_eigenstate(1), QuantumState.mass_eigenstate(1), times
            ),
        }
    if spec.model is DynamicsModel.QM:
        master = lindblad.wigner_weisskopf_spec(meson)
    else:
        master = lindblad.family_master_spec(meson, collapse)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    m0_vec = np.array([inv_sqrt2, inv_sqrt2], dtype=complex)
    m0bar_vec = np.array([inv_sqrt2, -inv_sqrt2], dtype=complex)
    out: dict[str, np.ndarray] = {}
    runs = {
        "M0": np.outer(m0_vec, m0_vec.conj()),
        "L": np.diag([1.0, 0.0]).astype(complex),
        "H": np.diag([0.0, 1.0]).astype(complex),
    }
    for name, rho0 in runs.items():
        rhos = lindblad.integrate_master(master, rho0, times)
        if name == "M0":
            out["P_M0_M0"] = np.einsum("i,tij,j->t", m0_vec.conj(), rhos, m0_vec).real
            out["P_M0_M0bar"] = np.einsum("i,tij,j->t", m0bar_vec.conj(), rhos, m0bar_vec).real
        elif name == "L":
            out["P_L_L"] = rhos[:, 0, 0].real
        else:
            out["P_H_H"] = rhos[:, 1, 1].real
    return out


def _sde_spec(spec: RunSpec) -> sde.SdeSpec:
    meson, collapse = spec.meson, spec.collapse
    if spec.model is DynamicsModel.QM:
        # Noise-free Wigner-Weisskopf limit of the flavor-decay equation.
        return sde.SdeSpec(
            equation=sde.SdeEquation.FLAVOR_DECAY,
            hamiltonian=lindblad.reduced_mass_operator(meson),
            collapse_ops=(np.eye(2),),
            rate=0.0,
            decay_quadratic=decay_operator(meson),
        )
    factories = {
        "family": sde.family_spec,
        "flavor_decay": sde.flavor_decay_spec,
        "imaginary": sde.imaginary_linear_spec,
        "stratonovich": sde.stratonovich_family_spec,
        "nonlinear": sde.collapse_flavor_spec,
        "enlarged": sde.enlarged_collapse_spec,
    }
    return factories[spec.equation](meson, collapse)


def _ensemble_stats(spec: RunSpec, times: np.ndarray):
    """Three ensembles (initial M0, M_L, M_H) sharing the seeded noise."""
    eq_spec = _sde_spec(spec)
    interval = times[1] - times[0]
    n_sub = max(1, round(interval / spec.dt))
    dt = interval / n_sub
    config = sde.NoiseConfig(seed=spec.seed, dt=dt, n_channels=eq_spec.n_channels)
    dim = eq_spec.dim

    def lift(mass_amps: np.ndarray) -> QuantumState:
        if dim == 2:
            return QuantumState(mass_amps, Basis.MASS)
        amps = np.zeros(4, dtype=complex)
        amps[:2] = mass_amps
        return QuantumState(amps, Basis.ENLARGED)

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    initial = {
        "M0": lift(np.array([inv_sqrt2, inv_sqrt2], dtype=complex)),
        "L": lift(np.array([1.0, 0.0], dtype=complex)),
        "H": lift(np.array([0.0, 1.0], dtype=complex)),
    }
    stats = {
        name: sde.ensemble_evolve(
            eq_spec, config, state, times, spec.n_trajectories, n_threads=spec.threads
        )
        for name, state in initial.items()
    }
    return stats, dt


def _discretization_floor(spec: RunSpec, times: np.ndarray, dt: float) -> np.ndarray:
    """Tolerance allowance for the O(dt) weak bias of the trajectory schemes.

    The rate scale includes the absolute masses: the Euler phase
    multiplier inflates amplitudes at m^2 dt per unit time.
    """
    meson, collapse = spec.meson, spec.collapse
    rate = max(meson.m_H, meson.delta_m, meson.gamma_L, meson.gamma_H)
    if collapse is not None:
        lam = collapse.effective_rate
        rate = max(rate, lam * float(np.max(mass_ratios(meson, collapse)) ** 2))
    return 1e-12 + 4.0 * dt * times * rate**2


# ----------------------------------------------------------------------
# commands

def cmd_analytic(spec: RunSpec) -> Table:
    times = spec.grid
    probs = _analytic_probs(spec, times)
    asym = _safe_asymmetry(probs["P_M0_M0"], probs["P_M0_M0bar"], times)
    meta = spec.header_notes + [f"command=analytic model={spec.model.value} meson={spec.meson_label}"]
    columns = ["time", *_PROB_COLUMNS, "asymmetry"]
    rows = [
        [times[k], *(probs[c][k] for c in _PROB_COLUMNS), asym[k]]
        for k in range(len(times))
    ]
    return Table(meta, columns, rows)


def cmd_master(spec: RunSpec) -> Table:
    times = spec.grid
    probs = _master_probs(spec, times)
    asym = _safe_asymmetry(probs["P_M0_M0"], probs["P_M0_M0bar"], times)
    meta = spec.header_notes + [f"command=master model={spec.model.value} meson={spec.meson_label}"]
    columns = ["time", *_PROB_COLUMNS, "asymmetry"]
    rows = [
        [times[k], *(probs[c][k] for c in _PROB_COLUMNS), asym[k]]
        for k in range(len(times))
    ]
    return Table(meta, columns, rows)


def cmd_ensemble(spec: RunSpec) -> Table:
    times = spec.grid
    stats, dt = _ensemble_stats(spec, times)
    m0_mean, m0_err = stats["M0"].column("P_M0")
    m0bar_mean, m0bar_err = stats["M0"].column("P_M0bar")
    l_mean, l_err = stats["L"].column("P_L")
    h_mean, h_err = stats["H"].column("P_H")
    asym = _safe_asymmetry(m0_mean, m0bar_mean, times)

    # Delta-method error on the asymmetry from the (P_M0, P_M0bar) covariance.
    cov = stats["M0"].covariances
    labels = stats["M0"].labels
    i0, i1 = labels.index("P_M0"), labels.index("P_M0bar")
    total = m0_mean + m0bar_mean
    g0 = 2.0 * m0bar_mean / total**2
    g1 = -2.0 * m0_mean / total**2
    n = spec.n_trajectories
    asym_var = (
        g0**2 * cov[:, i0, i0] + 2.0 * g0 * g1 * cov[:, i0, i1] + g1**2 * cov[:, i1, i1]
    ) / n
    asym_err = np.sqrt(np.maximum(asym_var, 0.0))

    meta = spec.header_notes + [
        f"command=ensemble model={spec.model.value} meson={spec.meson_label} "
        f"equation={spec.equation} N={spec.n_trajectories} seed={spec.seed} dt={_fmt(dt)}"
    ]
    columns = [
        "time", *_PROB_COLUMNS, "asymmetry",
        "stderr_P_M0_M0", "stderr_P_M0_M0bar", "stderr_P_L_L", "stderr_P_H_H", "stderr_asymmetry",
    ]
    rows = [
        [
            times[k], m0_mean[k], m0bar_mean[k], l_mean[k], h_mean[k], asym[k],
            m0_err[k], m0bar_err[k], l_err[k], h_err[k], asym_err[k],
        ]
        for k in range(len(times))
    ]
    return Table(meta, columns, rows)


def compare_routes(
    times: np.ndarray,
    analytic_probs: dict[str, np.ndarray],
    master_probs: dict[str, np.ndarray],
    ensemble_means: dict[str, np.ndarray],
    ensemble_errs: dict[str, np.ndarray],
    floor: np.ndarray,
) -> tuple[Table, float, float]:
    """Residual report between the three routes; pure comparison logic."""
    columns = ["time"]
    rows_data = [times]
    master_max = 0.0
    ratio_max = 0.0
    for col in _PROB_COLUMNS:
        res_m = master_probs[col] - analytic_probs[col]
        res_e = ensemble_means[col] - analytic_probs[col]
        ratio = np.abs(res_e) / np.maximum(ensemble_errs[col], floor)
        # np.maximum propagates NaN, so a non-finite residual fails the gate.
        master_max = float(np.maximum(master_max, np.abs(res_m).max()))
        ratio_max = float(np.maximum(ratio_max, ratio.max()))
        columns += [f"res_master_{col}", f"res_ensemble_{col}", f"ratio_ensemble_{col}"]
        rows_data += [res_m, res_e, ratio]
    rows = [list(row) for row in zip(*rows_data)]
    meta = [
        f"master_max_residual={_fmt(master_max)} tolerance={_fmt(_MASTER_RESIDUAL_TOL)}",
        f"ensemble_max_ratio={_fmt(ratio_max)} tolerance={_fmt(_ENSEMBLE_RATIO_TOL)}",
    ]
    return Table(meta, columns, rows), master_max, ratio_max


def cmd_compare(spec: RunSpec) -> tuple[Table, int]:
    times = spec.grid
    analytic_probs = _analytic_probs(spec, times)
    master_probs = _master_probs(spec, times)
    stats, dt = _ensemble_stats(spec, times)
    means = {
        "P_M0_M0": stats["M0"].column("P_M0")[0],
        "P_M0_M0bar": stats["M0"].column("P_M0bar")[0],
        "P_L_L": stats["L"].column("P_L")[0],
        "P_H_H": stats["H"].column("P_H")[0],
    }
    errs = {
        "P_M0_M0": stats["M0"].column("P_M0")[1],
        "P_M0_M0bar": stats["M0"].column("P_M0bar")[1],
        "P_L_L": stats["L"].column("P_L")[1],
        "P_H_H": stats["H"].column("P_H")[1],
    }
    floor = _discretization_floor(spec, times, dt)
    table, master_max, ratio_max = compare_routes(times, analytic_probs, master_probs, means, errs, floor)
    table.meta = spec.header_notes + [
        f"command=compare model={spec.model.value} meson={spec.meson_label} "
        f"N={spec.n_trajectories} seed={spec.seed} dt={_fmt(dt)}"
    ] + table.meta
    ok = master_max < _MASTER_RESIDUAL_TOL and ratio_max < _ENSEMBLE_RATIO_TOL
    status = "OK" if ok else "FAIL"
    summary = (
        f"compare: master_max_residual={_fmt(master_max)} ensemble_max_ratio={_fmt(ratio_max)} status={status}"
    )
    table.meta.append(summary)
    print(summary, file=sys.stderr)
    return table, 0 if ok else 3


def cmd_estimate(spec: RunSpec) -> Table:
    meson = spec.meson
    meta = spec.header_notes + [
        f"command=estimate meson={spec.meson_label} "
        f"delta_gamma={_fmt(meson.delta_gamma)} gamma_bar={_fmt(meson.gamma_bar)} delta_m={_fmt(meson.delta_m)}",
        "family_coeff_i = gamma_i / m~_i^2 at the recovered masses, i.e. lambda_eff(2beta-1)"
        " times m0^-2 (normal) or m0^2 (inverted); equal coefficients mark a consistent root",
    ]
    columns = ["convention", "status", "m_L_root", "m_H", "physical", "family_coeff_L", "family_coeff_H"]
    rows: list[list] = []
    for convention in (Convention.NORMAL, Convention.INVERTED):
        try:
            solutions = analytic.solve_absolute_masses(
                meson.delta_gamma, meson.gamma_bar, meson.delta_m, convention
            )
        except NoRealRoot:
            rows.append([convention.value, "no_real_root", "", "", "", "", ""])
            continue
        except DegenerateDenominator:
            rows.append([convention.value, "degenerate_denominator", "", "", "", "", ""])
            continue
        for root in solutions.roots:
            physical = root > 0.0
            m_h = root + meson.delta_m
            if physical:
                if convention is Convention.NORMAL:
                    coeff_l = meson.gamma_L / root**2
                    coeff_h = meson.gamma_H / m_h**2
                else:
                    coeff_l = meson.gamma_L * root**2
                    coeff_h = meson.gamma_H * m_h**2
                rows.append([convention.value, "ok", root, m_h, 1, coeff_l, coeff_h])
            else:
                rows.append([convention.value, "ok", root, m_h, 0, "", ""])
    return Table(meta, columns, rows)


def cmd_bounds(spec: RunSpec) -> Table:
    meta = spec.header_notes + [
        f"command=bounds convention={spec.convention.value} n_points={spec.n_points}",
        f"reference rates at r_C = {_fmt(analytic.ADLER_COHERENCE_LENGTH)} m: "
        f"GRW {_fmt(analytic.GRW_COLLAPSE_RATE)} 1/s, Adler {_fmt(analytic.ADLER_COLLAPSE_RATE)} 1/s "
        f"with band {_fmt(analytic.ADLER_COLLAPSE_RATE_BAND[0])}..{_fmt(analytic.ADLER_COLLAPSE_RATE_BAND[1])} 1/s",
    ]
    columns = ["curve", "m0", "lambda_lower_bound"]
    rows: list[list] = []
    for label, meson in spec.mesons:
        curve = analytic.bound_curve(meson, spec.m0_range, spec.convention, spec.n_points)
        name = f"{label}_{spec.convention.value}"
        for m0, bound in zip(curve.times, curve.values[:, 0]):
            rows.append([name, m0, bound])
    rows.append(["ref_GRW", "", analytic.GRW_COLLAPSE_RATE])
    rows.append(["ref_Adler", "", analytic.ADLER_COLLAPSE_RATE])
    rows.append(["ref_Adler_band_low", "", analytic.ADLER_COLLAPSE_RATE_BAND[0]])
    rows.append(["ref_Adler_band_high", "", analytic.ADLER_COLLAPSE_RATE_BAND[1]])
    return Table(meta, columns, rows)


def run(spec: RunSpec) -> int:
    """Execute one resolved run; returns the process exit code."""
    if spec.command == "compare":
        table, code = cmd_compare(spec)
        _write(table, spec)
        return code
    dispatch = {
        "analytic": cmd_analytic,
        "master": cmd_master,
        "ensemble": cmd_ensemble,
        "estimate": cmd_estimate,
        "bounds": cmd_bounds,
    }
    table = dispatch[spec.command](spec)
    _write(table, spec)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flavorcollapse",
        description="Collapse-model dynamics of decaying flavor-oscillating two-level systems",
    )
    parser.add_argument("config", help="path to a flat JSON run configuration")
    parser.add_argument("--output", help="output path (overrides config)")
    parser.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    parser.add_argument("--threads", type=int, help="worker threads; affects speed only, never bytes")
    parser.add_argument("--format", choices=("csv", "json"), help="output format (overrides config)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        spec = load_config(args.config)
        if args.output is not None:
            spec.output = args.output
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise InvalidParams("seed must fit in 64 bits")
            spec.seed = args.seed
        if args.threads is not None:
            if args.threads < 1:
                raise InvalidParams("threads must be at least 1")
            spec.threads = args.threads
        if args.format is not None:
            spec.fmt = args.format
    except (ParseError, UnknownKey, CatalogMiss, InvalidParams) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(spec)
    except ComparisonFailure as exc:
        print(f"comparison failed: {exc}", file=sys.stderr)
        return 3
    except FlavorCollapseError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
