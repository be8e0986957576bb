#!/usr/bin/env python3
"""Long profile of the CLI property test: more drawn configs, the same checks.

Runs the strategy and the check of ``tests/test_properties.py`` over
``--examples`` explicit-mass configs, each as ``analytic``, ``master`` and
exact ``ensemble``, with the tier-1 test's settings otherwise.  Exits 0 when every property held; a
failing config is printed by hypothesis and the script exits 1.

    python scripts/property_sweep.py --examples 4000
"""

import argparse
import sys
from pathlib import Path

from hypothesis import given, settings

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import test_properties  # noqa: E402  (the test module is the strategy's one home)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--examples", type=int, default=4000, help="configs to draw (default: 4000)")
    args = parser.parse_args()
    sweep = settings(test_properties.PROFILE, max_examples=args.examples)(
        given(test_properties.configs(), test_properties.ensemble_keys())(test_properties.check)
    )
    sweep()  # raises, and so exits 1, on the first config that breaks a property
    print(f"{args.examples} examples: every property held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
