"""Write ball_mass_sweep.json, the frozen reference of the KL-ball mass sweep.

Each row is d, ||theta0||, the radius, then the log prior mass of the ball
from the 40-digit mpmath shell integral ``ball_mass_mpmath``
(tests/oracles.py), as ``frozen_log_mass`` rounds it.  The points and that
function live in tests/test_risk.py.  About 7 minutes on one core; run from
the repository root:

    PYTHONPATH=src python tests/data/make_ball_mass_sweep.py [--jobs N]
"""

import argparse
import json
import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_risk import ball_mass_sweep_points, frozen_log_mass  # noqa: E402


def reference_row(point):
    return [*point, frozen_log_mass(*point)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    jobs = parser.parse_args().jobs
    points = ball_mass_sweep_points()
    if jobs > 1:
        with multiprocessing.get_context("spawn").Pool(jobs) as pool:
            rows = pool.map(reference_row, points, chunksize=1)
    else:
        rows = [reference_row(p) for p in points]
    (HERE / "ball_mass_sweep.json").write_text(json.dumps(rows) + "\n")


if __name__ == "__main__":
    main()
