"""Run-configuration ingestion, command dispatch and bit-stable output.

One positional argument names a flat JSON configuration.  The shipped
schema ``data/run_config.schema.json`` is the loader's one table of each
key's type, enum, bounds, default and commands; ``--output``, ``--seed``,
``--threads`` and ``--format`` override their keys and are validated
exactly like them.  Every command is a pure function of the
configuration bytes and the bundled meson catalog: floats are rendered
with 17 significant digits, so re-parsing and re-rendering an output
reproduces it byte for byte, and ``--threads`` never changes output
bytes.

Exit codes: 0 success, 1 usage/configuration error, 2 domain error (a route's
probability that is not finite or outside [0, 1] among them),
3 comparison failure.

Unit handling: explicit meson parameters and ``m0`` are natural units
(1/s).  Catalog runs give masses in MeV and convert exactly once at
load, echoing the conversion constant as a header comment; spatial
collapse constants combine into the effective rate without conversion.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

# ``analytic``, ``lindblad`` and ``sde`` are imported inside the functions
# that call them, so a command loads only the routes it runs.
from .core import (
    STATES,
    CollapseParams,
    Convention,
    FlavorTarget,
    MesonParams,
    Model,
    mass_ratios,
)
from .errors import (
    CatalogMiss,
    DegenerateDenominator,
    FlavorCollapseError,
    InvalidParams,
    NoRealRoot,
    ParseError,
    UnknownKey,
    UnphysicalProbability,
)

__all__ = ["RunSpec", "load_config", "main", "run", "compare_routes"]

_MASTER_RESIDUAL_TOL = 1e-12
_PROB_TOL = 1e-12  # round-off allowed outside [0, 1]
_ENSEMBLE_RATIO_TOL = 4.0
_MAX_STEPS = 2**31  # Euler steps per trajectory of a stepped equation
# The ``sde.SdeEquation`` label of each CSL equation.  Each is a label on the
# routes' one master equation; ``enlarged`` embeds it in the enlarged space.
_EQUATIONS = {
    "family": "linear",
    "flavor_decay": "nonlinear",
    "imaginary": "linear",
    "stratonovich": "linear",
    "nonlinear": "nonlinear",
    "enlarged": "nonlinear",
}
# The Python types of the schema's JSON types.
_TYPES = {"number": (int, float), "integer": int, "string": str}


def _data(name: str) -> dict:
    """A bundled JSON file: the meson catalog or the run-configuration schema."""
    with resources.files("flavorcollapse.data").joinpath(name).open() as fh:
        return json.load(fh)


def _meson_from_catalog(catalog: dict, key: str) -> tuple[MesonParams, list[str]]:
    entry = catalog["mesons"].get(key)
    if entry is None:
        raise CatalogMiss(f"meson {key!r} not in catalog (have: {', '.join(sorted(catalog['mesons']))})")
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
    """Fully resolved parameters of one CLI run; a key the config omits takes its schema default.

    A route command's model is stored once: ``collapse`` is None for QM and
    otherwise names QMUPL or CSL in ``collapse.model``.
    """

    command: str
    meson: MesonParams | None
    meson_label: str
    mesons: list[tuple[str, MesonParams]]
    collapse: CollapseParams | None
    t_max: float | None
    n_points: int
    n_trajectories: int | None
    seed: int
    dt: float | None
    equation: str
    threads: int
    output: str | None
    fmt: str
    convention: Convention
    m0_range: tuple[float, float] | None
    header_notes: list[str]

    @property
    def grid(self) -> np.ndarray:
        t_max = self.t_max
        if t_max is None:
            if self.meson.gamma_bar > 0.0:
                t_max = 10.0 / self.meson.gamma_bar
            else:
                t_max = 10.0 * 2.0 * math.pi / self.meson.delta_m
        return np.linspace(0.0, t_max, self.n_points)

    @property
    def model_name(self) -> str:
        """The header's model name: QM, QMUPL or CSL."""
        return "QM" if self.collapse is None else self.collapse.model.value


def _get(cfg: dict, props: dict, key: str, required: bool = False):
    """``cfg[key]`` checked against its schema property ``props[key]``, or the property's default.

    The property gives the type (an enum without one takes its members'),
    the enum and the bounds; a number must also be finite.
    """
    prop = props[key]
    if key not in cfg:
        if required:
            raise InvalidParams(f"config key '{key}' is required for this command")
        return prop.get("default")
    value = cfg[key]
    kind = prop.get("type") or ("string" if isinstance(prop["enum"][0], str) else "integer")
    if isinstance(value, bool) or not isinstance(value, _TYPES[kind]):
        raise InvalidParams(f"config key '{key}' must be of type {kind}")
    if kind == "number":
        try:  # json.load accepts NaN, Infinity and integers beyond the float range
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise InvalidParams(f"config key '{key}' must be a finite number")
    if "enum" in prop and value not in prop["enum"]:
        raise InvalidParams(f"{key} must be one of {', '.join(map(str, prop['enum']))}")
    if "minimum" in prop and value < prop["minimum"]:
        raise InvalidParams(f"{key} must be at least {prop['minimum']}")
    if "maximum" in prop and value > prop["maximum"]:
        raise InvalidParams(f"{key} must be at most {prop['maximum']}")
    if "exclusiveMinimum" in prop and not value > prop["exclusiveMinimum"]:
        raise InvalidParams(f"{key} must be greater than {prop['exclusiveMinimum']}")
    return value


def load_config(path: str, overrides: dict | None = None) -> RunSpec:
    """Parse and validate a run configuration against the published schema.

    Every fact about one key (type, enum, bounds, default and the commands
    that take it) is read from ``data/run_config.schema.json``; the rules
    across keys are checked here.  ``overrides`` (the CLI flags) replace
    config keys before validation, so a flag is checked exactly as the key
    it overrides; None values are skipped.  Loading builds no equation and
    imports no route module: every ensemble equation is a label on the
    routes' own master equation (``_sde_spec``), so no config can pair an
    ensemble with other physics than its analytic and master routes.
    """
    try:
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8 (RFC 8259)
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"config is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("config nests too deeply to parse") from exc
    if not isinstance(cfg, dict):
        raise ParseError("config must be a flat JSON object")
    cfg.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    props = _data("run_config.schema.json")["properties"]
    for key in cfg:
        if key not in props:  # repr escapes a line break in the name: the error stays one line
            raise UnknownKey(f"unknown config key {key!r}")

    command = _get(cfg, props, "command", required=True)
    ignored = [key for key in cfg if command not in props[key]["commands"]]
    if ignored:
        raise InvalidParams(f"the {command} command takes no {', '.join(ignored)}")
    if any(key in cfg for key in ("meson", "mesons", "m0_MeV", "m0_min_MeV", "m0_max_MeV")):
        catalog = _data("meson_catalog.json")
    meson, label, mesons, notes = None, "custom", [], []
    used_catalog = False

    explicit = [k for k in ("m_L", "m_H", "gamma_L", "gamma_H") if k in cfg]
    if "meson" in cfg and explicit:
        raise InvalidParams("give either a catalog 'meson' or explicit m_L/m_H/gamma_L/gamma_H, not both")
    if "meson" in cfg:
        label = _get(cfg, props, "meson")
        meson, notes = _meson_from_catalog(catalog, label)
        used_catalog = True
    elif explicit:
        if len(explicit) != 4:
            raise InvalidParams("explicit meson parameters require all of m_L, m_H, gamma_L, gamma_H")
        meson = MesonParams(**{key: _get(cfg, props, key) for key in explicit})
        notes.append("explicit meson parameters taken as natural units (1/s), no conversion")

    if "mesons" in cfg:
        if meson is not None:
            raise InvalidParams("give either a 'mesons' list or one meson, not both")
        names = cfg["mesons"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise InvalidParams("'mesons' must be a list of catalog keys")
        for name in names:
            entry, entry_notes = _meson_from_catalog(catalog, name)
            mesons.append((name, entry))
            notes.extend(entry_notes)
        used_catalog = True
    elif meson is not None:
        mesons = [(label, meson)]

    convention = Convention(_get(cfg, props, "ratio_convention"))
    model = _get(cfg, props, "model")

    collapse = None
    if command in ("analytic", "master", "ensemble", "compare"):
        if meson is None:
            raise InvalidParams(f"the {command} command needs meson parameters")
        if model is None:
            raise InvalidParams(f"the {command} command needs a 'model'")
        if model != "QM":
            if "m0" in cfg and "m0_MeV" in cfg:
                raise InvalidParams("give either m0 (1/s) or m0_MeV, not both")
            if "m0_MeV" in cfg:
                m0 = _get(cfg, props, "m0_MeV") / catalog["hbar_MeV_s"]
                if not used_catalog:
                    raise InvalidParams("m0_MeV applies to catalog runs; explicit runs take m0 in 1/s")
            else:
                m0 = _get(cfg, props, "m0", required=True)
            collapse = CollapseParams(
                model=Model(model),
                rate=_get(cfg, props, "rate", required=True),
                beta=_get(cfg, props, "beta", required=True),
                m0=m0,
                alpha=_get(cfg, props, "alpha", required=True),
                d=_get(cfg, props, "d"),
                r_C=_get(cfg, props, "r_C"),
                ratio_convention=convention,
            )
            lam = collapse.effective_rate
            if not all(math.isfinite(lam * r * r) for r in mass_ratios(meson, collapse).tolist()):
                raise InvalidParams("the collapse-induced rate lambda_eff m~^2 of a mass state is not finite")
        elif any(k in cfg for k in ("rate", "r_C", "beta", "m0", "m0_MeV", "alpha", "d", "ratio_convention")):
            raise InvalidParams("model QM takes no collapse parameters")
        elif "equation" in cfg:
            raise InvalidParams("model QM takes no equation: its ensemble runs the Wigner-Weisskopf equation")

    trajectories = command in ("ensemble", "compare")
    if trajectories and model == "QMUPL":
        raise InvalidParams("the ensemble route is undefined for QMUPL: its flavor-space reduction is not closed")
    equation = _get(cfg, props, "equation")
    # Only a stepped equation reads dt; QM runs the exactly sampled linear one.
    stepped = trajectories and model != "QM" and _EQUATIONS[equation] == "nonlinear"

    m0_range = None
    if command == "bounds":
        if not mesons:
            raise InvalidParams("the bounds command needs 'meson', 'mesons' or explicit m_L/m_H/gamma_L/gamma_H")
        if "m0_min_MeV" in cfg or "m0_max_MeV" in cfg:
            if "m0_min" in cfg or "m0_max" in cfg:
                raise InvalidParams("give either m0_min/m0_max (1/s) or m0_min_MeV/m0_max_MeV, not both")
            if not used_catalog:
                raise InvalidParams("MeV ranges apply to catalog runs; explicit runs take m0_min/m0_max in 1/s")
            lo = _get(cfg, props, "m0_min_MeV", required=True) / catalog["hbar_MeV_s"]
            hi = _get(cfg, props, "m0_max_MeV", required=True) / catalog["hbar_MeV_s"]
        else:
            lo = _get(cfg, props, "m0_min", required=True)
            hi = _get(cfg, props, "m0_max", required=True)
        if not (0.0 < lo < hi):
            raise InvalidParams("m0 range must be positive and increasing")
        m0_range = (lo, hi)

    if command == "estimate" and meson is None:
        raise InvalidParams("the estimate command needs meson parameters")

    spec = RunSpec(
        command=command, meson=meson, meson_label=label, mesons=mesons, collapse=collapse,
        t_max=_get(cfg, props, "t_max"), n_points=_get(cfg, props, "n_points"),
        n_trajectories=_get(cfg, props, "n_trajectories", required=trajectories), seed=_get(cfg, props, "seed"),
        dt=_get(cfg, props, "dt", required=stepped), equation=equation,
        threads=_get(cfg, props, "threads"), output=_get(cfg, props, "output"), fmt=_get(cfg, props, "format"),
        convention=convention, m0_range=m0_range, header_notes=notes,
    )
    if spec.output:
        # Checked before the run, so a long computation never ends unwritten.
        directory = os.path.dirname(os.path.abspath(spec.output))
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            raise InvalidParams(f"output directory {directory} does not exist or is not writable")
    if stepped:
        times = spec.grid
        interval = float(times[1] - times[0])
        if not math.isfinite(interval / spec.dt):
            raise InvalidParams(f"dt={_fmt(spec.dt)} leaves no finite number of steps in a grid interval")
        n_sub = _substeps(interval, spec.dt)
        steps = (spec.n_points - 1) * float(n_sub)
        if steps > _MAX_STEPS:
            raise InvalidParams(f"dt={_fmt(spec.dt)} asks for {steps:.4g} Euler steps per trajectory, more than 2**31")
        # The fastest decay of the routes' master equation (``lindblad.family_master_spec``), the largest
        # K_ii + sum_c (L_c^dag L_c)_ii = lambda_eff ((2 beta - 1) m~_i^2 + (m~_i - m~_L)^2): past h rate = 4
        # an Euler step's real factor 1 - h rate / 2 leaves [-1, 1] and the stepped state grows.
        lam, ratios = collapse.effective_rate, mass_ratios(meson, collapse).tolist()
        rate = max(lam * r * r * (2.0 * collapse.beta - 1.0) + lam * (r - ratios[0]) * (r - ratios[0]) for r in ratios)
        h = interval / n_sub
        if h * rate > 4.0:
            raise InvalidParams(
                f"dt={_fmt(spec.dt)} steps h={_fmt(h)} at the fastest decay rate {_fmt(rate)}: h rate = "
                f"{_fmt(h * rate)} > 4, so one Euler step's factor 1 - h rate/2 leaves [-1, 1]"
            )
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


def _safe_asymmetry(p_same: np.ndarray, p_flip: np.ndarray, times: np.ndarray) -> np.ndarray:
    denom = p_same + p_flip
    bad = ~np.isfinite(denom) | (denom <= 0.0)
    if np.any(bad):
        t_bad = times[np.argmax(bad)]
        raise DegenerateDenominator(f"flavor probabilities vanish at t = {_fmt(t_bad)}")
    return (p_same - p_flip) / denom


# ----------------------------------------------------------------------
# the probability table shared by every route

# Output column -> (initial state, final state) of ``core.STATES``.  The
# ensemble observable of final state X is "P_X".
_PROBS = {
    "P_M0_M0": ("M0", "M0"),
    "P_M0_M0bar": ("M0", "M0bar"),
    "P_L_L": ("L", "L"),
    "P_H_H": ("H", "H"),
}
_PROB_COLUMNS = tuple(_PROBS)


# (lowest, highest, name) of a probability cell, allowing round-off, and of a standard error.
_PROBABILITY = (-_PROB_TOL, 1.0 + _PROB_TOL, "a probability in [0, 1]")
_STDERR = (0.0, sys.float_info.max, "a finite nonnegative standard error")


def _require_cells(
    route: str, times: np.ndarray, cells: dict[str, np.ndarray], kind: tuple = _PROBABILITY
) -> dict[str, np.ndarray]:
    """``cells`` unchanged if every column lies within the bounds of ``kind``, so is finite.

    Otherwise raises ``UnphysicalProbability`` naming the route, the column
    and the first offending time.  NaN fails both comparisons.
    """
    low, high, name = kind
    for col, values in cells.items():
        bad = ~((values >= low) & (values <= high))
        if np.any(bad):
            k = int(np.argmax(bad))
            raise UnphysicalProbability(
                f"{route} route: {col}={_fmt(values[k])} at time={_fmt(times[k])} is not {name}"
            )
    return cells


def _analytic_probs(spec: RunSpec, times: np.ndarray) -> dict[str, np.ndarray]:
    from . import analytic

    # Called through the module, so wrappers installed on it apply.
    meson, collapse = spec.meson, spec.collapse
    out = {}
    for col, (initial, final) in _PROBS.items():
        if initial == "M0":
            out[col] = analytic.prob_flavor(meson, collapse, FlavorTarget(final), times)
        else:  # lifetime index: L = 0, H = 1
            out[col] = analytic.prob_lifetime(meson, collapse, "LH".index(initial), "LH".index(final), times)
    return out


def _route_master_spec(spec: RunSpec) -> lindblad.MasterSpec:
    """Master equation of the QM and CSL routes: measured or collapse-induced widths."""
    from . import lindblad

    if spec.collapse is None:
        return lindblad.wigner_weisskopf_spec(spec.meson)
    return lindblad.family_master_spec(spec.meson, spec.collapse)


def _require_density_matrices(initial: str, times: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """``rhos`` unchanged if every 2x2 state has trace and eigenvalues in range up to round-off.

    The trace must lie in [0, 1] (decay only lowers it) and the smallest
    eigenvalue, tr/2 - hypot((a - d)/2, |b|) for the Hermitian state
    [[a, b], [b*, d]], must not be negative.  Otherwise raises
    ``UnphysicalProbability`` naming the initial state and the first
    offending time.  NaN fails every comparison.
    """
    trace = np.einsum("tii->t", rhos).real
    smallest = trace / 2 - np.hypot((rhos[:, 0, 0].real - rhos[:, 1, 1].real) / 2, np.abs(rhos[:, 0, 1]))
    bad = ~((trace >= -_PROB_TOL) & (trace <= 1.0 + _PROB_TOL) & (smallest >= -_PROB_TOL))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise UnphysicalProbability(
            f"master route: the state from {initial} at time={_fmt(times[k])} is not a density matrix "
            f"(trace {_fmt(trace[k])}, smallest eigenvalue {_fmt(smallest[k])})"
        )
    return rhos


def _master_probs(spec: RunSpec, times: np.ndarray) -> dict[str, np.ndarray]:
    """QMUPL from the exact kernel partial traces; QM and CSL by propagating
    the initial states in one stack, checking each state and projecting on
    the final states."""
    from . import lindblad

    if spec.collapse is not None and spec.collapse.model is Model.QMUPL:
        def prob(initial: str, final: str) -> np.ndarray:
            return lindblad.probs_from_kernels(spec.meson, spec.collapse, STATES[initial], STATES[final], times)
    else:
        initial = dict.fromkeys(state for state, _ in _PROBS.values())
        stack = np.array([np.outer(STATES[name], STATES[name].conj()) for name in initial])
        propagated = lindblad.integrate_master(_route_master_spec(spec), stack, times)
        rhos = {name: _require_density_matrices(name, times, rho) for name, rho in zip(initial, propagated)}

        def prob(initial: str, final: str) -> np.ndarray:
            amps = STATES[final]
            return np.einsum("i,tij,j->t", amps.conj(), rhos[initial], amps).real
    return {col: prob(initial, final) for col, (initial, final) in _PROBS.items()}


def _sde_spec(spec: RunSpec) -> sde.SdeSpec:
    """The run's equation as a label on the routes' master equation, so every CSL equation decays
    through the collapse-induced widths."""
    from . import lindblad, sde

    master = _route_master_spec(spec)
    if spec.collapse is None:
        # Wigner-Weisskopf evolution: the linear equation with one zero channel, sampled exactly.
        return sde.SdeSpec(sde.SdeEquation.LINEAR, replace(master, lindblads=(np.zeros((2, 2)),)))
    if spec.equation == "enlarged":
        master = lindblad.enlarged_master_spec(master)
    return sde.SdeSpec(sde.SdeEquation(_EQUATIONS[spec.equation]), master)


def _ensemble_stats(spec: RunSpec, eq_spec: sde.SdeSpec, times: np.ndarray):
    """Ensembles of ``eq_spec`` from each initial state of the table, in one pass, and the step.

    One ``ensemble_evolve`` call evolves the states together: trajectory k
    of each state is driven by the same (seed, k) noise stream, and each
    grid point is reduced to centred moments once for all of them.  The
    nonlinear equations step at the largest dt that divides the grid
    interval and does not exceed the configured one.  The linear ones
    (``family``, ``imaginary``, ``stratonovich`` and the QM equation) are
    sampled exactly at the grid points and read no dt; their step is the
    grid interval.
    """
    from . import sde

    interval = times[1] - times[0]
    n_sub = 1 if _exact(eq_spec) else _substeps(interval, spec.dt)
    dt = interval / n_sub
    config = sde.NoiseConfig(seed=spec.seed, dt=dt)
    initial = dict.fromkeys(state for state, _ in _PROBS.values())
    states = np.array([np.pad(STATES[name], (0, eq_spec.dim - 2)) for name in initial])
    runs = sde.ensemble_evolve(eq_spec, config, states, times, spec.n_trajectories, n_threads=spec.threads)
    return dict(zip(initial, runs)), dt


def _substeps(interval: float, dt: float) -> int:
    """The fewest steps of at most ``dt`` in a grid interval; a relative 1e-9 absorbs the rounding
    of an exact multiple."""
    return max(1, math.ceil(interval / dt * (1.0 - 1e-9)))


def _exact(eq_spec: sde.SdeSpec) -> bool:
    from . import sde

    return eq_spec.equation is sde.SdeEquation.LINEAR


def _scheme_note(eq_spec: sde.SdeSpec, dt: float) -> str:
    """Header token of the ensemble's scheme: the exact solution, or the step."""
    return "method=exact" if _exact(eq_spec) else f"dt={_fmt(dt)}"


def _ensemble_probs(stats) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Means and standard errors per column, read off the initial state's ensemble."""
    pairs = {col: stats[initial].column(f"P_{final}") for col, (initial, final) in _PROBS.items()}
    return {col: mean for col, (mean, _) in pairs.items()}, {col: err for col, (_, err) in pairs.items()}


def _discretization_floor(eq_spec: sde.SdeSpec, times: np.ndarray, dt: float) -> np.ndarray:
    """Round-off base 1e-12 plus the allowance 4 dt t r^2 for the O(dt) weak bias of a stepping.

    An exactly sampled linear equation has no discretization bias and gets
    the base alone.  r is the fastest rate of the generator that is stepped,
    read off its master equation: the larger of ||K||_2 (the decay) and
    max_c ||L_c||_2^2, one rate per physics whichever name built the
    equation.  H is not stepped: the kernel takes it exactly, as a phase
    (``sde._stepped_batches``).  Each matrix is diagonal or monomial, so its
    2-norm is its largest |entry|.
    """
    if _exact(eq_spec):
        return np.full(times.shape, 1e-12)
    k, ops = eq_spec.master.anticommutator, eq_spec.master.lindblads
    rate = max([np.abs(op).max() ** 2 for op in ops] + ([] if k is None else [np.abs(k).max()]))
    return 1e-12 + 4.0 * dt * times * rate**2


# ----------------------------------------------------------------------
# commands

def _prob_table(spec: RunSpec, times: np.ndarray, probs: dict[str, np.ndarray], meta_tail: str = "") -> Table:
    """Time, the four probability columns and the flavor asymmetry, one row per grid point."""
    asym = _safe_asymmetry(probs["P_M0_M0"], probs["P_M0_M0bar"], times)
    meta = spec.header_notes + [
        f"command={spec.command} model={spec.model_name} meson={spec.meson_label}{meta_tail}"
    ]
    columns = ["time", *_PROB_COLUMNS, "asymmetry"]
    return Table(meta, columns, [list(row) for row in zip(times, *(probs[c] for c in _PROB_COLUMNS), asym)])


def cmd_route(spec: RunSpec) -> Table:
    """The analytic or the master route's probability table."""
    times = spec.grid
    route = {"analytic": _analytic_probs, "master": _master_probs}[spec.command]
    return _prob_table(spec, times, _require_cells(spec.command, times, route(spec, times)))


def cmd_ensemble(spec: RunSpec) -> Table:
    times = spec.grid
    eq_spec = _sde_spec(spec)
    stats, dt = _ensemble_stats(spec, eq_spec, times)
    means, errs = _ensemble_probs(stats)
    _require_cells("ensemble", times, means)
    equation = "" if spec.collapse is None else f" equation={spec.equation}"
    table = _prob_table(
        spec, times, means, f"{equation} N={spec.n_trajectories} seed={spec.seed} {_scheme_note(eq_spec, dt)}"
    )

    # Delta-method error on the asymmetry from the (P_M0, P_M0bar) covariance.
    # The means are first scaled by the power of two 2^-e that brings their
    # total into [1/2, 1), so total**2 never underflows, and the covariance
    # arrives scaled by 4^-s (``EnsembleStats.exponents``); the error is
    # scaled back by 2^(s - e).  The scalings are exact, and where nothing
    # underflowed the bits are those of the unscaled formula.  A zero
    # covariance gives exactly 0.
    cov = stats["M0"].scaled_covariances
    labels = stats["M0"].labels
    i0, i1 = labels.index("P_M0"), labels.index("P_M0bar")
    total, e = np.frexp(means["P_M0_M0"] + means["P_M0_M0bar"])
    m0_mean, m0bar_mean = np.ldexp(means["P_M0_M0"], -e), np.ldexp(means["P_M0_M0bar"], -e)
    g0 = 2.0 * m0bar_mean / total**2
    g1 = -2.0 * m0_mean / total**2
    n = spec.n_trajectories
    asym_var = (
        g0**2 * cov[:, i0, i0] + 2.0 * g0 * g1 * cov[:, i0, i1] + g1**2 * cov[:, i1, i1]
    ) / n
    asym_err = np.ldexp(np.sqrt(np.maximum(asym_var, 0.0)), stats["M0"].exponents - e)

    stderrs = {f"stderr_{c}": errs[c] for c in _PROB_COLUMNS} | {"stderr_asymmetry": asym_err}
    _require_cells("ensemble", times, stderrs, _STDERR)
    table.columns += list(stderrs)
    for row, *extra in zip(table.rows, *stderrs.values()):
        row.extend(extra)
    return table


def compare_routes(
    times: np.ndarray,
    analytic_probs: dict[str, np.ndarray],
    master_probs: dict[str, np.ndarray],
    ensemble_means: dict[str, np.ndarray],
    ensemble_errs: dict[str, np.ndarray],
    floor: np.ndarray,
) -> tuple[Table, tuple[str, float, float], tuple[str, float, float]]:
    """Residual report between the three routes, and the (column, time, size) of its largest |master
    residual| and largest ensemble ratio; pure comparison logic.  A NaN cell counts as the largest, so it
    fails the gate; ties go to the earliest time, then to the first column."""
    def block(probs: dict[str, np.ndarray]) -> np.ndarray:  # (time, column)
        return np.column_stack([probs[col] for col in _PROB_COLUMNS])

    def worst(cells: np.ndarray) -> tuple[str, float, float]:
        k, j = np.unravel_index(np.argmax(cells), cells.shape)
        return _PROB_COLUMNS[j], times[k], float(cells[k, j])

    res_m = block(master_probs) - block(analytic_probs)
    res_e = block(ensemble_means) - block(analytic_probs)
    ratio = np.abs(res_e) / np.maximum(block(ensemble_errs), floor[:, None])
    master, ensemble = worst(np.abs(res_m)), worst(ratio)
    kinds = ("res_master", "res_ensemble", "ratio_ensemble")
    columns = ["time", *(f"{kind}_{col}" for col in _PROB_COLUMNS for kind in kinds)]
    cells = np.stack([res_m, res_e, ratio], axis=2).reshape(len(times), -1)  # the three kinds per column
    rows = [[t, *row] for t, row in zip(times, cells)]
    meta = [
        f"master_max_residual={_fmt(master[2])} tolerance={_fmt(_MASTER_RESIDUAL_TOL)}",
        f"ensemble_max_ratio={_fmt(ensemble[2])} tolerance={_fmt(_ENSEMBLE_RATIO_TOL)}",
    ]
    return Table(meta, columns, rows), master, ensemble


def cmd_compare(spec: RunSpec) -> tuple[Table, int]:
    times = spec.grid
    analytic_probs = _require_cells("analytic", times, _analytic_probs(spec, times))
    master_probs = _require_cells("master", times, _master_probs(spec, times))
    eq_spec = _sde_spec(spec)
    stats, dt = _ensemble_stats(spec, eq_spec, times)
    means, errs = _ensemble_probs(stats)
    _require_cells("ensemble", times, means)
    _require_cells("ensemble", times, {f"stderr_{c}": err for c, err in errs.items()}, _STDERR)
    table, (m_col, m_time, master_max), (e_col, e_time, ratio_max) = compare_routes(
        times, analytic_probs, master_probs, means, errs, _discretization_floor(eq_spec, times, dt)
    )
    table.meta = spec.header_notes + [
        f"command=compare model={spec.model_name} meson={spec.meson_label} "
        f"N={spec.n_trajectories} seed={spec.seed} {_scheme_note(eq_spec, dt)}"
    ] + table.meta
    ok = master_max < _MASTER_RESIDUAL_TOL and ratio_max < _ENSEMBLE_RATIO_TOL
    status = "OK" if ok else "FAIL"
    summary = (
        f"compare: master_max_residual={_fmt(master_max)} ensemble_max_ratio={_fmt(ratio_max)} status={status}"
    )
    table.meta.append(summary)
    print(summary, file=sys.stderr)
    print(
        f"compare: worst master residual in {m_col} at time={_fmt(m_time)}; "
        f"worst ensemble ratio in {e_col} at time={_fmt(e_time)} ratio={_fmt(ratio_max)}",
        file=sys.stderr,
    )
    return table, 0 if ok else 3


def cmd_estimate(spec: RunSpec) -> Table:
    from . import analytic

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
            roots = analytic.solve_absolute_masses(
                meson.delta_gamma, meson.gamma_bar, meson.delta_m, convention
            )
        except (NoRealRoot, DegenerateDenominator) as exc:
            status = "no_real_root" if isinstance(exc, NoRealRoot) else "degenerate_denominator"
            rows.append([convention.value, status, "", "", "", "", ""])
            continue
        for root in roots:
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
    from . import analytic

    meta = spec.header_notes + [
        f"command=bounds convention={spec.convention.value} n_points={spec.n_points}",
        f"reference rates at r_C = {_fmt(analytic.ADLER_COHERENCE_LENGTH)} m: "
        f"GRW {_fmt(analytic.GRW_COLLAPSE_RATE)} 1/s, Adler {_fmt(analytic.ADLER_COLLAPSE_RATE)} 1/s "
        f"with band {_fmt(analytic.ADLER_COLLAPSE_RATE_BAND[0])}..{_fmt(analytic.ADLER_COLLAPSE_RATE_BAND[1])} 1/s",
    ]
    columns = ["curve", "m0", "lambda_lower_bound"]
    rows: list[list] = []
    for label, meson in spec.mesons:
        m0s, bounds = analytic.bound_curve(meson, spec.m0_range, spec.convention, spec.n_points)
        name = f"{label}_{spec.convention.value}"
        for m0, bound in zip(m0s, bounds):
            rows.append([name, m0, bound])
    rows.append(["ref_GRW", "", analytic.GRW_COLLAPSE_RATE])
    rows.append(["ref_Adler", "", analytic.ADLER_COLLAPSE_RATE])
    rows.append(["ref_Adler_band_low", "", analytic.ADLER_COLLAPSE_RATE_BAND[0]])
    rows.append(["ref_Adler_band_high", "", analytic.ADLER_COLLAPSE_RATE_BAND[1]])
    return Table(meta, columns, rows)


def run(spec: RunSpec) -> int:
    """Execute one resolved run; returns the process exit code."""
    code = 0
    if spec.command == "compare":
        table, code = cmd_compare(spec)
    else:
        commands = {"analytic": cmd_route, "master": cmd_route, "ensemble": cmd_ensemble,
                    "estimate": cmd_estimate, "bounds": cmd_bounds}
        table = commands[spec.command](spec)
    text = table.render(spec.fmt)
    if spec.output:
        try:
            with open(spec.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


def main(argv=None) -> int:
    """Run the CLI on ``argv`` (default: ``sys.argv[1:]``); returns the exit code.

    As the process entry point (``argv`` None: the console script and
    ``python -m flavorcollapse``) it freezes the heap once the command has
    written its output and chosen its exit code.  CPython's exit-time
    collections then skip every long-lived object, the module graph of
    numpy and the package among them, while atexit handlers, stdio flushing
    and module teardown still run.  A call with an argument list, from a
    library or a test, never freezes its caller's heap.
    """
    try:
        parser = argparse.ArgumentParser(
            prog="flavorcollapse",
            description="Collapse-model dynamics of decaying flavor-oscillating two-level systems",
        )
        parser.add_argument("config", help="path to a flat JSON run configuration")
        parser.add_argument("--output", help="output path (overrides config)")
        parser.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        parser.add_argument("--threads", type=int, help="worker threads; affects speed only, never bytes")
        parser.add_argument("--format", help="output format, csv or json (overrides config)")
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 1 if exc.code not in (0, None) else 0
        overrides = vars(args)  # every flag but the path is named after the config key it overrides
        try:
            spec = load_config(overrides.pop("config"), overrides)
        except (ParseError, UnknownKey, CatalogMiss, InvalidParams) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        try:
            return run(spec)
        except FlavorCollapseError as exc:
            print(f"domain error: {exc}", file=sys.stderr)
            return 2
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
