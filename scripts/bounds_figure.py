#!/usr/bin/env python3
"""Emit the collapse-rate lower-bound curves for the catalog mesons.

Writes one CSV per mass-ratio convention over a reference-mass range
spanning light quarks to beyond the Higgs mass, with the GRW and Adler
reference rates as constant rows.  Plot lambda_lower_bound against m0
on log-log axes to reproduce the bound-figure layout.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from flavorcollapse import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory (default: ./out)")
    parser.add_argument("--n-points", type=int, default=120)
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory() as configs:
        for convention in ("inverted", "normal"):
            config = {
                "command": "bounds",
                "mesons": ["K0", "D0", "B0", "Bs0"],
                "ratio_convention": convention,
                "m0_min_MeV": 1.0,
                "m0_max_MeV": 1.0e6,
                "n_points": args.n_points,
            }
            config_path = Path(configs) / f"bounds_{convention}.json"
            config_path.write_text(json.dumps(config))
            out = outdir / f"bounds_{convention}.csv"
            code = cli.main([str(config_path), "--output", str(out)])
            if code != 0:
                return code
            print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
