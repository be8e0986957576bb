#!/usr/bin/env python3
"""Run all three routes for one CSL setup and write curves plus residuals.

Produces analytic, master-equation and trajectory-ensemble probability
curves for a synthetic two-level system (natural units), and the
compare-command residual report.  Exit code mirrors the comparison gate.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from flavorcollapse import cli

_BASE = {
    "m_L": 0.5, "m_H": 1.5, "gamma_L": 0.0, "gamma_H": 0.0,
    "model": "CSL", "rate": 0.3, "r_C": 0.5, "beta": 0.8,
    "m0": 1.0, "alpha": 1.0, "d": 2,
    "t_max": 6.0, "n_points": 121,
}
# Keys of the trajectory routes; analytic and master runs take none of them.
_TRAJECTORIES = {"n_trajectories": 4000, "seed": 7, "dt": 0.0015}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory (default: ./out)")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    final = 0
    with tempfile.TemporaryDirectory() as configs:
        for command in ("analytic", "master", "ensemble", "compare"):
            config_path = Path(configs) / f"{command}.json"
            trajectories = _TRAJECTORIES if command in ("ensemble", "compare") else {}
            config_path.write_text(json.dumps(dict(_BASE, command=command, **trajectories)))
            out = outdir / f"{command}.csv"
            code = cli.main([str(config_path), "--output", str(out)])
            print(f"{command}: exit {code}, wrote {out}")
            if command == "compare":
                final = code
            elif code != 0:
                return code
    return final


if __name__ == "__main__":
    sys.exit(main())
