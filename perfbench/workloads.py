"""The benchmark's workloads: the CLI configurations of each op.

An op is one pass over a workload's invocations.  Every config is written
verbatim; the workload seed reaches the program only through the CLI's
``--seed`` flag, and only on the invocations that use noise (``compare``).
"""

from __future__ import annotations

from dataclasses import dataclass

# The README ``compare`` example, verbatim.
README_COMPARE = {
    "command": "compare",
    "m_L": 0.5, "m_H": 1.5, "gamma_L": 0.0, "gamma_H": 0.0,
    "model": "CSL", "rate": 0.3, "r_C": 0.5, "beta": 0.8,
    "m0": 1.0, "alpha": 1.0, "d": 2,
    "t_max": 6.0, "n_points": 121,
    "n_trajectories": 4000, "seed": 7, "dt": 0.0015,
}

# Collapse parameters of the catalog-scale kaon comparison in the CLI tests.
CATALOG_COLLAPSE = {
    "rate": 2.2e-10, "r_C": 1e-7, "beta": 0.8, "m0_MeV": 938.272, "alpha": 1e-14, "d": 3,
}
MESONS = ("K0", "D0", "B0", "Bs0")

# The Bs0 CSL master run integrates over a fifth of its default window
# (10 / gamma_bar = 1.5e-11 s).  Over the full window it is a single
# 6-10 s pure-Python integration, two thirds of the op, and a run would
# hold only two or three ops.
BS0_CSL_WINDOW = {("Bs0", "CSL"): {"t_max": 3e-12}}

# Initial states per ensemble: M0, M_L and M_H.
ENSEMBLE_INITIAL_STATES = 3


@dataclass(frozen=True)
class Invocation:
    name: str
    config: dict

    @property
    def command(self) -> str:
        return self.config["command"]

    @property
    def seeded(self) -> bool:
        return self.command == "compare"

    @property
    def trajectories(self) -> int:
        """Trajectories the invocation simulates: initial states x N."""
        if self.command != "compare":
            return 0
        return ENSEMBLE_INITIAL_STATES * self.config["n_trajectories"]


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    invocations: tuple[Invocation, ...]

    @property
    def trajectories(self) -> int:
        return sum(inv.trajectories for inv in self.invocations)


def _catalog_invocations() -> tuple[Invocation, ...]:
    runs = [
        Invocation(
            f"master_{meson}_{model}",
            {"command": "master", "meson": meson, "model": model, **CATALOG_COLLAPSE, "n_points": 400,
             **BS0_CSL_WINDOW.get((meson, model), {})},
        )
        for meson in MESONS
        for model in ("CSL", "QMUPL")
    ]
    runs.append(Invocation(
        "compare_K0",
        {
            "command": "compare", "meson": "K0", "model": "CSL", **CATALOG_COLLAPSE,
            "n_points": 9, "n_trajectories": 64, "seed": 3, "dt": 2.5e-13,
        },
    ))
    runs.append(Invocation(
        "bounds",
        {
            "command": "bounds", "mesons": list(MESONS), "ratio_convention": "inverted",
            "m0_min_MeV": 100.0, "m0_max_MeV": 1e4, "n_points": 400,
        },
    ))
    return tuple(runs)


WORKLOADS = {
    w.name: w
    for w in (
        # Runnable, but not gated in BENCHMARK.json: too noisy on a shared VM.
        Workload(
            "readme_compare", 7,
            (Invocation("compare", README_COMPARE),),
        ),
        Workload(
            "wide_compare", 11,
            # N = 10000, not 20000: a 3 s op gives a run twice the samples.
            # The ensemble stage keeps its shape (cProfile at N = 10000:
            # reduction 39 %, Heun steps 32 %, stream set-up 17 %).
            (Invocation("compare", {
                **README_COMPARE, "equation": "stratonovich",
                "n_points": 401, "n_trajectories": 10000, "seed": 11, "dt": 0.015,
            }),),
        ),
        Workload("catalog", 3, _catalog_invocations()),
    )
}
