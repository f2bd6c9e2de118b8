"""`ghs density` and `ghs sample` stream their tables in blocks of
``cli._BLOCK`` rows: the bytes must equal a one-shot table built here
(whole-table `log_density`, or the single-call sampler below, formatted by
`repr` and by `json.dumps`), and memory must not grow with the row count.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ghs.distribution
from ghs import cli
from ghs.distribution import GhsDistribution, log_density, sample_arrays, sample_blocks
from ghs.errors import DomainError
from ghs.rng import make_rng

B = cli._BLOCK
SRC = str(Path(__file__).resolve().parents[1] / "src")


def one_call_sample_arrays(dist, n, seed):
    """The sampler as one call: all n uniforms, then all n x d normals."""
    rng = make_rng(seed)
    u = rng.random(n)
    lam = np.abs(np.tan(0.5 * math.pi * u))
    z = rng.standard_normal((n, dist.d))
    return lam, dist.sigma_theta * lam[:, None] * z


def reference_text(header, table, fmt):
    """The bytes of a whole table: reprs joined by commas, or one json.dumps
    with non-finite values as null and "pole": true on rows that hold +inf."""
    rows = table.tolist()
    if fmt == "csv":
        return ",".join(header) + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)
    docs = []
    for row in rows:
        docs.append({k: v if math.isfinite(v) else None for k, v in zip(header, row)})
        if math.inf in row:
            docs[-1]["pole"] = True
    return json.dumps(docs, indent=1, sort_keys=True) + "\n"


def assert_same_text(written, reference):
    """Equal texts; on a difference, report the first line that differs (a
    full diff of megabytes of text takes minutes to render)."""
    if written != reference:
        a, b = written.splitlines(), reference.splitlines()
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {i}: {a[i:i + 1]} != {b[i:i + 1]} ({len(a)} vs {len(b)} lines)")


def density_table(dist, pts):
    ld = log_density(dist, pts)
    dens = np.where(ld < 700, np.exp(np.minimum(ld, 700)), math.inf)
    return np.column_stack([pts, dens, ld])


def run(tmp_path, name, *argv):
    out = tmp_path / name
    cli.main([*argv, "--out", str(out)])
    return out.read_text(encoding="utf-8")


def grid_points(spec, d):
    """The points of a --grid spec in row-major order, coordinates lo + i * step."""
    lo, hi, step = map(float, spec.split(":"))
    count = round((hi - lo) / step) + 1
    axis = [lo + i * step for i in range(count)]
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


@pytest.mark.parametrize("d, spec", [
    (1, "-5:5:0.0001"),  # 100,001 rows
    (2, "-1:1:0.005"),  # 401^2 = 160,801 rows
    (3, "-2:2:0.1"),  # 41^3 = 68,921 rows
    (4, "-1:1:0.125"),  # 17^4 = 83,521 rows
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_across_blocks_matches_whole_table(tmp_path, fmt, d, spec):
    # every grid crosses a block boundary
    pts = grid_points(spec, d)
    assert B < len(pts) < 3 * B
    dist = GhsDistribution(d)
    header = [f"x{i + 1}" for i in range(d)] + ["density", "log_density"]
    written = run(tmp_path, f"grid.{fmt}", "density", "--d", str(d), f"--grid={spec}",
                  "--format", fmt)
    assert_same_text(written, reference_text(header, density_table(dist, pts), fmt))


def test_density_grid_evaluates_each_distinct_radius_once(tmp_path, monkeypatch):
    # the 226,981 points have 5,383 distinct radii; one kernel call per
    # 65,536-row block evaluated 15,198 elements, each block's own radii
    kernel = ghs.distribution.exp_scaled_expint
    elements = []

    def counted(nu, x):
        elements.append(np.size(x))
        return kernel(nu, x)

    monkeypatch.setattr(ghs.distribution, "exp_scaled_expint", counted)
    written = run(tmp_path, "grid.csv", "density", "--d", "3", "--grid=-3:3:0.1")
    assert sum(elements) == 5383
    monkeypatch.undo()
    header = ["x1", "x2", "x3", "density", "log_density"]
    table = density_table(GhsDistribution(3), grid_points("-3:3:0.1", 3))
    reference = reference_text(header, table, "csv")
    assert hashlib.sha256(written.encode()).digest() == hashlib.sha256(reference.encode()).digest()


@pytest.mark.parametrize("sigma", ["1", "2.5"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_and_points_file_give_the_same_bytes(tmp_path, fmt, sigma):
    # 17^4 = 83,521 points over two blocks, the origin (the pole) among them:
    # grid coordinates come from axis indices, points-file coordinates from
    # a cache keyed by their bits
    pts = grid_points("-1:1:0.125", 4)
    path = tmp_path / "pts.txt"
    path.write_text("".join(" ".join(map(repr, p)) + "\n" for p in pts.tolist()), encoding="utf-8")
    argv = ["density", "--d", "4", "--sigma-theta", sigma, "--format", fmt]
    grid = run(tmp_path, f"g.{fmt}", *argv, "--grid=-1:1:0.125")
    assert_same_text(run(tmp_path, f"p.{fmt}", *argv, "--points-file", str(path)), grid)
    if fmt == "csv":
        assert [r for r in grid.splitlines() if "inf" in r] == ["0.0,0.0,0.0,0.0,inf,inf"]
    else:
        poles = [doc for doc in json.loads(grid) if doc.get("pole")]
        assert poles == [{"x1": 0.0, "x2": 0.0, "x3": 0.0, "x4": 0.0, "density": None,
                          "log_density": None, "pole": True}]


def test_one_point_grid_past_64_axes(tmp_path):
    # a grid of one point per axis has one row at any dimension, also past
    # the 64 axes that np.unravel_index takes
    d = 100
    pts = np.zeros((1, d))  # lo + 0 * step is +0.0 for lo = -0.0
    header = [f"x{i + 1}" for i in range(d)] + ["density", "log_density"]
    written = run(tmp_path, "one.csv", "density", "--d", str(d), "--grid=-0.0:0:1")
    assert_same_text(written, reference_text(header, density_table(GhsDistribution(d), pts), "csv"))


@pytest.mark.parametrize("cache", [cli._REPR_CACHE, 40])
def test_reprs_carried_across_blocks_match_repr(monkeypatch, cache):
    # shared columns draw on overlapping value sets block after block, so
    # later blocks find most values in the cache; a cache of 40 values
    # overflows and restarts from the current block
    monkeypatch.setattr(cli, "_REPR_CACHE", cache)
    rng = np.random.default_rng(11)
    pool = np.concatenate([[0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 0.1],
                           rng.standard_normal(60) * 1e3])
    blocks = []
    for i, m in enumerate([500, 300, 1, 9000, 700, 40]):
        lo = 5 * i
        shared = rng.choice(pool[lo:lo + 30 + 10 * i], m)
        blocks.append(np.column_stack([shared, rng.standard_normal(m), shared[::-1]]))
    blocks.insert(2, np.column_stack([rng.standard_normal((50, 3))]))  # nothing shared
    reference = "".join(",".join(map(repr, row)) + "\n" for b in blocks for row in b.tolist())
    cells = cli._Cells(lambda values: [cli._reprs(values)])
    chunks = (cells.cells(b) for b in blocks)
    assert_same_text("".join(cli._csv_chunks(chunks)), reference)


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
@pytest.mark.parametrize("d", [1, 3])
def test_sample_blocks_match_one_call_sampler(tmp_path, n, d):
    dist = GhsDistribution(d, 1.5)
    lam, xs = one_call_sample_arrays(dist, n, 17)
    table = np.column_stack([lam, xs])
    header = ["lambda"] + [f"x{i + 1}" for i in range(d)]
    for fmt in ("csv", "json"):
        written = run(tmp_path, f"s.{fmt}", "sample", "--d", str(d), "--n", str(n),
                      "--sigma-theta", "1.5", "--seed", "17", "--format", fmt)
        assert_same_text(written, reference_text(header, table, fmt))


@pytest.mark.parametrize("n, d, seed", [
    (1, 1, 0), (7, 3, 5), (1000, 2, 1), (B - 1, 1, 2), (B, 3, 3), (B + 1, 2, 4),
    (2 * B + 3, 3, 2024),
])
def test_sample_arrays_equal_one_call_sampler(n, d, seed):
    dist = GhsDistribution(d, 0.5)
    lam, xs = sample_arrays(dist, n, seed)
    ref_lam, ref_xs = one_call_sample_arrays(dist, n, seed)
    assert np.array_equal(lam, ref_lam) and np.array_equal(xs, ref_xs)
    blocks = list(sample_blocks(dist, n, seed, 1000))
    assert [len(b[0]) for b in blocks] == [min(1000, n - lo) for lo in range(0, n, 1000)]
    assert np.array_equal(np.concatenate([b[1] for b in blocks]), ref_xs)


def test_sample_blocks_check_arguments_before_the_first_block():
    dist = GhsDistribution(2)
    with pytest.raises(DomainError):
        sample_blocks(dist, 2.5, 1, B)
    with pytest.raises(DomainError):
        sample_blocks(dist, 5, -1, B)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_points_file_across_blocks_matches_whole_table(tmp_path, fmt):
    rng = np.random.default_rng(3)
    m = B + 50
    pts = np.round(rng.standard_normal((m, 2)), 2)  # repeats, and both zeros
    pts[:4] = [[0.0, 0.0], [-0.0, 0.0], [1e-300, -0.0], [0.5, 0.5]]
    lines = ["# header comment", ""]
    for i, (a, b) in enumerate(pts.tolist()):
        lines.append(f"{a!r}, {b!r}" if i % 2 else f"  {a!r} {b!r}  ")
        if i % 9000 == 0:
            lines += ["", "# a comment", "   "]
    path = tmp_path / "pts.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    header = ["x1", "x2", "density", "log_density"]
    written = run(tmp_path, f"p.{fmt}", "density", "--d", "2", "--points-file", str(path),
                  "--format", fmt)
    reference = reference_text(header, density_table(GhsDistribution(2), pts), fmt)
    assert_same_text(written, reference)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_points_file_of_scattered_and_repeating_blocks(tmp_path, fmt):
    # a block of repeating radii goes through the radius and coordinate
    # caches, a block of scattered points is formatted value by value, and
    # the caches outlive the scattered block; the last block holds the pole
    rng = np.random.default_rng(7)
    pts = np.concatenate([np.round(rng.standard_normal((B, 3)), 1), rng.standard_normal((B, 3)),
                          np.round(rng.standard_normal((999, 3)), 1), [[0.0, -0.0, 0.0]]])
    path = tmp_path / "pts.txt"
    path.write_text("".join(" ".join(map(repr, p)) + "\n" for p in pts.tolist()), encoding="utf-8")
    header = ["x1", "x2", "x3", "density", "log_density"]
    written = run(tmp_path, f"p.{fmt}", "density", "--d", "3", "--points-file", str(path),
                  "--format", fmt)
    assert_same_text(written, reference_text(header, density_table(GhsDistribution(3), pts), fmt))


def test_empty_points_file_writes_header_only(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# nothing\n\n", encoding="utf-8")
    assert run(tmp_path, "e.csv", "density", "--d", "2", "--points-file", str(path)) == (
        "x1,x2,density,log_density\n")
    assert run(tmp_path, "e.json", "density", "--d", "2", "--points-file", str(path),
               "--format", "json") == "[]\n"


def test_points_at_a_dimension_past_order_171(tmp_path):
    # the density's E_nu order is (d + 1)/2 = 172 at d = 343, where the
    # series' x^(n-1)/(n-1)! raised a raw OverflowError and the CLI a traceback
    d = 343
    pts = np.zeros((2, d))
    pts[0, 0], pts[1, :] = 0.01, 0.5
    path = tmp_path / "pts.txt"
    path.write_text("".join(" ".join(map(repr, p)) + "\n" for p in pts.tolist()), encoding="utf-8")
    header = [f"x{i + 1}" for i in range(d)] + ["density", "log_density"]
    written = run(tmp_path, "p.csv", "density", "--d", str(d), "--points-file", str(path))
    assert_same_text(written, reference_text(header, density_table(GhsDistribution(d), pts), "csv"))


def test_error_in_a_later_block_leaves_no_file(tmp_path, capsys):
    # the first block is written before the bad line is read
    path = tmp_path / "pts.txt"
    path.write_text("0.5 0.5\n" * (B + 10) + "1.0\n", encoding="utf-8")
    out = tmp_path / "d.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["density", "--d", "2", "--points-file", str(path), "--out", str(out)])
    assert exc.value.code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "DimensionError"
    assert os.listdir(tmp_path) == ["pts.txt"]


MAXRSS_GROWTH = """
import resource, sys
from ghs.cli import main
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
main(sys.argv[1:])
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) / 1024.0)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_density_memory_does_not_grow_with_rows(tmp_path):
    # 101^3 = 1,030,301 rows: a whole-table writer grows by about 130 MB
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run(
        [sys.executable, "-c", MAXRSS_GROWTH, "density", "--d", "3",
         "--grid=-2.5:2.5:0.05", "--out", str(tmp_path / "big.csv")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert float(res.stdout) < 50.0
