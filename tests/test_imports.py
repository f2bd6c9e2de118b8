"""`import ghs`, `import ghs.gamsel`, `import ghs.study` and the
density/sample CLI paths load no SciPy.

SciPy's first import costs about 0.3 s and 30 MB, most of a short CLI call.
Only the calls that use it load it: KL-ball masses (`scipy.special`), the
Gibbs sampler's first factorization (`scipy.linalg`), quadrature oracles and
the `Phi1`/`1F1` oracles.  Each check runs in a fresh interpreter, since this
test process has SciPy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghs

SRC = str(Path(__file__).resolve().parents[1] / "src")

REPORT_SCIPY = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def fresh(code, tmp_path):
    """Run ``code`` and then REPORT_SCIPY in a new interpreter with ``src`` first on the path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run(
        [sys.executable, "-c", code + REPORT_SCIPY],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


CLI = "from ghs.cli import main; main({} + ['--out', 'x'])"


@pytest.mark.parametrize("code", [
    "import ghs",
    "import ghs.cli",
    "import ghs.study",
    "import ghs.gamsel",
    CLI.format(["density", "--d", "3", "--grid=-1:1:0.5"]),
    CLI.format(["sample", "--d", "2", "--n", "5", "--seed", "1"]),
])
def test_loads_no_scipy(code, tmp_path):
    assert json.loads(fresh(code, tmp_path)[-1]) == []


def test_scipy_paths_work_after_a_scipy_free_import(tmp_path):
    code = """
import ghs
from ghs.cli import main
main(['risk', '--d-list', '1,2', '--n-grid', '1e3', '--out', 'r.csv'])
print(open('r.csv').read().splitlines()[1].split(',')[2])
spec = ghs.AdditiveModelSpec(n=60, d_lin=1, d_nl=1, basis_size=4)
chain = ghs.gibbs_sampler(ghs.generate_data(spec, 0.5, 1), spec, iters=20, burn=5, seed=1)
print(len(chain))
"""
    lines = fresh(code, tmp_path)
    assert float(lines[0]) == pytest.approx(ghs.kl_ball_prior_mass(ghs.RiskScenario(1), 1000))
    assert lines[1] == "15"
    assert {"scipy.special", "scipy.linalg"} <= set(json.loads(lines[-1]))


def test_every_exported_name_resolves():
    for name in ghs.__all__:
        assert getattr(ghs, name) is not None, name
    assert set(ghs.__all__) <= set(dir(ghs))
    namespace = {}
    exec("from ghs import *", namespace)
    assert set(ghs.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        ghs.no_such_name  # noqa: B018
