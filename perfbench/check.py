"""Correctness check of one CLI invocation's outputs.

An invocation fails when it exits non-zero, when a ``compare`` run does
not report ``status=OK`` with finite residuals, when any output cell is
non-finite, when a probability column leaves [-1e-12, 1 + 1e-12], or when
a ``master`` output differs from the ``analytic`` output of the same
config by the master tolerance or more.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

MASTER_TOL = 1e-8
P_SLACK = 1e-12
_SUMMARY = re.compile(r"master_max_residual=(\S+) ensemble_max_ratio=(\S+) status=(\w+)")


@dataclass
class Verdict:
    """Problems found and deterministic health counts read from the outputs."""

    problems: list[str] = field(default_factory=list)
    nonfinite: int = 0
    p_out_of_range: int = 0
    master_max_residual: float = 0.0
    ensemble_max_ratio: float = 0.0

    def merge(self, other: "Verdict") -> None:
        self.problems += other.problems
        self.nonfinite += other.nonfinite
        self.p_out_of_range += other.p_out_of_range
        # NaN must win over any finite value, which max() alone does not guarantee.
        self.master_max_residual = _worst(self.master_max_residual, other.master_max_residual)
        self.ensemble_max_ratio = _worst(self.ensemble_max_ratio, other.ensemble_max_ratio)


def _worst(a: float, b: float) -> float:
    return max(a, b, key=lambda v: (math.isnan(v), v))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:  # labels such as curve names, and blank cells
        return None


def read_table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check(command: str, returncode: int, stderr: str, text: str, reference: str | None = None) -> Verdict:
    """Verdict on one invocation; ``reference`` is the analytic output for a master run."""
    v = Verdict()
    if returncode != 0:
        v.problems.append(f"exit code {returncode}")
    if command == "compare":
        match = _SUMMARY.search(stderr)
        if match is None:
            v.problems.append("no compare summary on stderr")
        else:
            v.master_max_residual = float(match.group(1))
            v.ensemble_max_ratio = float(match.group(2))
            if match.group(3) != "OK":
                v.problems.append(f"compare status={match.group(3)}")
            if not (math.isfinite(v.master_max_residual) and math.isfinite(v.ensemble_max_ratio)):
                v.problems.append("non-finite compare summary")
    columns, rows = read_table(text)
    if not rows:
        v.problems.append("empty output")
    prob_cols = [i for i, name in enumerate(columns) if name.startswith("P_")]
    for row in rows:
        for i, cell in enumerate(row):
            x = _number(cell)
            if x is None:
                continue
            if not math.isfinite(x):
                v.nonfinite += 1
            elif i in prob_cols and not -P_SLACK <= x <= 1.0 + P_SLACK:
                v.p_out_of_range += 1
    if v.nonfinite:
        v.problems.append(f"{v.nonfinite} non-finite cells")
    if v.p_out_of_range:
        v.problems.append(f"{v.p_out_of_range} probabilities outside [0, 1]")
    if reference is not None:
        v.problems += _against_reference(columns, rows, reference)
    return v


def _against_reference(columns: list[str], rows: list[list[str]], reference: str) -> list[str]:
    ref_columns, ref_rows = read_table(reference)
    if columns != ref_columns or len(rows) != len(ref_rows):
        return ["master output does not have the analytic output's shape"]
    worst = 0.0
    for row, ref_row in zip(rows, ref_rows):
        for cell, ref_cell in zip(row, ref_row):
            x, y = _number(cell), _number(ref_cell)
            if x is not None and y is not None:
                worst = _worst(worst, abs(x - y))
    if not worst < MASTER_TOL:
        return [f"master differs from analytic by {worst:.3g}"]
    return []


def self_check() -> list[str]:
    """Proves the checker can fail; returns the cases it got wrong."""
    good = "# ok\ntime,P_M0_M0,asymmetry\n0,1,1\n1,0.5,0.25\n"
    summary_ok = "compare: master_max_residual=1e-13 ensemble_max_ratio=0.2 status=OK\n"
    summary_fail = "compare: master_max_residual=1e-13 ensemble_max_ratio=5.1 status=FAIL\n"
    wrong = [
        f"correct {command} output failed"
        for command, stderr in (("analytic", ""), ("compare", summary_ok))
        if check(command, 0, stderr, good).problems
    ]
    bad = {
        "NaN cell": check("analytic", 0, "", good.replace("0.25", "nan")),
        "exit-3 compare": check("compare", 3, summary_fail, good),
        "P = 1.03": check("ensemble", 0, "", good.replace("0.5", "1.03")),
        "master off analytic by 1e-8": check("master", 0, "", good.replace("0.5", "0.50000001"), good),
    }
    return wrong + [f"{name} passed" for name, verdict in bad.items() if not verdict.problems]
