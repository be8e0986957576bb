"""Microbenchmarks of public ``sde`` calls at the workloads' shapes.

Usage: ``python perfbench/micro.py SEED`` with the package importable;
prints one JSON object of per-call medians in microseconds.

Shapes: 2048 rows of the README CSL system (the ensemble batch size at
both compare workloads' step counts); one Euler step at the README
sub-step 0.05/33, one Heun step at the wide grid step 0.015; Wiener
increments for 3960 steps (README: 120 intervals x 33 sub-steps) and
401 - 1 = 400 steps (wide grid).  Each call is warmed up first, and its
result is consumed inside the timed region.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

import numpy as np

from flavorcollapse import sde
from flavorcollapse.core import CollapseParams, MesonParams, Model

ROWS = 2048
BLOCKS = 7
WARMUP = 20


def per_call_us(call, calls_per_block: int) -> float:
    """Median over blocks of the mean time per call."""
    sink = 0.0
    for i in range(WARMUP):
        sink += call(i)
    times = []
    for b in range(BLOCKS):
        t0 = time.perf_counter()
        for i in range(calls_per_block):
            sink += call(b * calls_per_block + i)
        times.append((time.perf_counter() - t0) / calls_per_block)
    if not math.isfinite(sink):
        raise SystemExit("microbenchmark produced a non-finite result")
    return statistics.median(times) * 1e6


def main(seed: int) -> dict[str, float]:
    meson = MesonParams(m_L=0.5, m_H=1.5, gamma_L=0.0, gamma_H=0.0)
    collapse = CollapseParams(model=Model.CSL, rate=0.3, beta=0.8, m0=1.0, alpha=1.0, d=2, r_C=0.5)
    rng = np.random.default_rng(seed)
    psi = np.tile(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0), (ROWS, 1))
    euler_h, heun_h = 0.05 / 33, 0.015
    dw_euler = rng.standard_normal((ROWS, 1)) * math.sqrt(euler_h)
    dw_heun = rng.standard_normal((ROWS, 1)) * math.sqrt(heun_h)
    family = sde.family_spec(meson, collapse)
    stratonovich = sde.stratonovich_family_spec(meson, collapse)

    def wiener(n_steps: int):
        config = sde.NoiseConfig(seed=seed, dt=euler_h)
        return lambda i: float(sde.wiener_increments(config, n_steps, i)[-1, 0])

    return {
        "sde.step_us": per_call_us(lambda i: float(sde.step(family, psi, dw_euler, euler_h)[-1, 0].real), 200),
        "sde.stratonovich_step_us": per_call_us(
            lambda i: float(sde.stratonovich_step(stratonovich, psi, dw_heun, heun_h)[-1, 0].real), 100
        ),
        "sde.wiener_increments_3960_us": per_call_us(wiener(3960), 200),
        "sde.wiener_increments_400_us": per_call_us(wiener(400), 400),
    }


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]))))
