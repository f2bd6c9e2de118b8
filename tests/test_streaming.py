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
from ghs.distribution import (
    GhsDistribution, density, log_density, sample_arrays, sample_blocks
)
from ghs.errors import DomainError
from ghs.rng import make_rng

B = cli._BLOCK
C = cli._CHUNK  # rows of each block that sample draws and formats
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
    with non-finite values as null and "pole": true on density rows whose
    log density is +inf (the origin)."""
    rows = table.tolist()
    if fmt == "csv":
        return ",".join(header) + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)
    docs = []
    for row in rows:
        docs.append({k: v if math.isfinite(v) else None for k, v in zip(header, row)})
        if header[-1] == "log_density" and row[-1] == math.inf:
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
    return np.column_stack([pts, density(dist, pts), log_density(dist, pts)])


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
    # the grid's cells are made once per axis value, prefix and class of
    # prefixes, the points file's values are formatted where they are used
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


@pytest.mark.parametrize("d, spec, plain", [
    (9, "-1:1:1", False),  # 3^9 = 19,683 rows: 6,561 runs of 3 in 9 classes
    (2, "0:5e-324:5e-324", True),  # a subnormal axis value squares to 0
    (2, "1e-200:3e-200:1e-200", True),  # squares that underflow
    (2, "-1e200:1e200:1e200", True),  # squares that overflow
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_matches_its_points_file_and_repr(tmp_path, monkeypatch, fmt, d, spec, plain):
    # a grid whose squares leave the normal range takes the plain writer,
    # whose norms recompute those rows by hypot; either way the grid, its
    # points written by repr to a points file, and repr give the same bytes
    csv_chunks, calls = cli._csv_chunks, []
    monkeypatch.setattr(cli, "_csv_chunks", lambda tables: calls.append(1) or csv_chunks(tables))
    pts = grid_points(spec, d)
    path = tmp_path / "pts.txt"
    path.write_text("".join(" ".join(map(repr, p)) + "\n" for p in pts.tolist()), encoding="utf-8")
    argv = ["density", "--d", str(d), "--format", fmt]
    grid = run(tmp_path, f"g.{fmt}", *argv, f"--grid={spec}")
    assert calls == [1] * plain
    assert_same_text(run(tmp_path, f"p.{fmt}", *argv, "--points-file", str(path)), grid)
    header = [f"x{i + 1}" for i in range(d)] + ["density", "log_density"]
    assert_same_text(grid, reference_text(header, density_table(GhsDistribution(d), pts), fmt))


def test_one_point_grid_past_64_axes(tmp_path):
    # a grid of one point per axis has one row at any dimension, also past
    # the 64 axes that np.unravel_index takes
    d = 100
    pts = np.zeros((1, d))  # lo + 0 * step is +0.0 for lo = -0.0
    header = [f"x{i + 1}" for i in range(d)] + ["density", "log_density"]
    written = run(tmp_path, "one.csv", "density", "--d", str(d), "--grid=-0.0:0:1")
    assert_same_text(written, reference_text(header, density_table(GhsDistribution(d), pts), "csv"))


@pytest.mark.parametrize("d, spec", [
    (1, "-0.0:2:0.25"), (2, "-0.0:1:0.125"), (3, "-1:1:0.25"), (4, "-0.0:1:0.25"),
    (2, "0:1:0.01"),  # 101^2 = 10,201 rows in one quadrant, 4,134 distinct radii
    (1, "0:1:0.0001"),  # 10,001 rows, no radius repeats
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_cells_match_repr(tmp_path, fmt, d, spec):
    # runs of the last axis from their class's template, the prefix cell of
    # the leading d - 1 axes in place of its NULs (no prefix at d = 1); every
    # grid of at most _REPR_CACHE values per axis whose squares are normal is
    # written so, however few of its radii repeat
    pts = grid_points(spec, d)
    header = [f"x{i + 1}" for i in range(d)] + ["density", "log_density"]
    written = run(tmp_path, f"g.{fmt}", "density", "--d", str(d), f"--grid={spec}", "--format", fmt)
    assert_same_text(written, reference_text(header, density_table(GhsDistribution(d), pts), fmt))
    if fmt == "json" and spec.startswith("-0.0"):  # the origin is a row: the pole
        assert sum(doc.get("pole", False) for doc in json.loads(written)) == 1


@pytest.mark.parametrize("d, spec, cache, plain", [
    (3, "-1:1:0.25", 81, False),  # 9^2 prefixes fit: one prefix block
    (3, "-1:1:0.25", 80, False),  # one prefix too many: two blocks
    (3, "-1:1:0.25", 9, False),  # nine blocks
    (3, "-1:1:0.25", 8, True),  # axes past the cache: the plain writer
    (4, "-1:1:0.5", 125, False),  # one block
    (4, "-1:1:0.5", 124, False),  # two blocks
    (1, "-1:1:0.25", 9, False),  # one run, no prefix
])
def test_grid_prefix_cells_switch_at_the_cache_bound(tmp_path, monkeypatch, d, spec, cache, plain):
    # the cached writer makes the prefix cells _REPR_CACHE runs at a time; a
    # grid of more values per axis takes the plain one
    monkeypatch.setattr(cli, "_REPR_CACHE", cache)
    csv_chunks, calls = cli._csv_chunks, []
    monkeypatch.setattr(cli, "_csv_chunks", lambda tables: calls.append(1) or csv_chunks(tables))
    pts = grid_points(spec, d)
    header = [f"x{i + 1}" for i in range(d)] + ["density", "log_density"]
    written = run(tmp_path, "g.csv", "density", "--d", str(d), f"--grid={spec}")
    assert_same_text(written, reference_text(header, density_table(GhsDistribution(d), pts), "csv"))
    assert calls == [1] * plain


@pytest.mark.parametrize("bound", [1, 3000, 10**6])
def test_templates_restart_under_their_bound(tmp_path, monkeypatch, bound):
    # 13^3 rows from 0.1 up, so no two axis values square alike: 88 classes
    # (91 pairs of squares, three sums met by rounding) of 169 prefixes,
    # taken 48 at a time.  A bound of 1 byte keeps one
    # class's template and 3,000 bytes a few, so the templates restart and
    # remake classes; 10^6 bytes hold them all, so each is made once
    monkeypatch.setattr(cli, "_TEMPLATE_BYTES", bound)
    monkeypatch.setattr(cli, "_REPR_CACHE", 48)
    monkeypatch.setattr(cli, "_CHUNK", 100)
    spec = "0.1:1.3:0.1"
    pts = grid_points(spec, 3)
    axis = np.unique(pts[:, 0])
    # a template's most bytes: a NUL, the axis cell and its comma, the radius cells
    width = sum(len(repr(v)) + 2 for v in axis.tolist()) + cli._RADIUS_BYTES * axis.size
    room = max(1, bound // width)
    batches = []
    templates = cli._templates

    def counted(dist, sums, sq, marked):
        made = templates(dist, sums, sq, marked)
        batches.append(len(made))
        assert len(made) == 1 or sum(map(len, made)) <= bound
        return made

    monkeypatch.setattr(cli, "_templates", counted)
    header = ["x1", "x2", "x3", "density", "log_density"]
    for fmt in ("csv", "json"):
        written = run(tmp_path, f"g.{fmt}", "density", "--d", "3", f"--grid={spec}", "--format", fmt)
        assert_same_text(written, reference_text(header, density_table(GhsDistribution(3), pts), fmt))
    classes = np.unique(pts[::13, 0] ** 2 + pts[::13, 1] ** 2).size  # two commands make them
    assert classes == 88 and max(batches) <= room
    assert sum(batches) > 2 * classes if room < classes else sum(batches) == 2 * classes


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_repeating_points_file_with_special_coordinates(tmp_path, fmt):
    # -0.0 keeps its sign, 5e-324 is a subnormal radius, and an infinite
    # coordinate is an infinite radius; the file spans two blocks
    rng = np.random.default_rng(23)
    values = np.array([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 0.5, -1.25, 3.0])
    pts = rng.choice(values, (B + 300, 2))
    path = tmp_path / "pts.txt"
    path.write_text("".join(" ".join(map(repr, p)) + "\n" for p in pts.tolist()), encoding="utf-8")
    header = ["x1", "x2", "density", "log_density"]
    written = run(tmp_path, f"p.{fmt}", "density", "--d", "2", "--points-file", str(path), "--format", fmt)
    assert_same_text(written, reference_text(header, density_table(GhsDistribution(2), pts), fmt))


@pytest.mark.parametrize("bad", ["nan 0.0", "0.5 -NaN"])
def test_nan_point_is_refused_without_output(tmp_path, capsys, bad):
    # a NaN coordinate has no radius: its line is named before its block is
    # evaluated, and the rows written for the first block leave no file;
    # the comment and blank lines count in the line number
    path = tmp_path / "pts.txt"
    path.write_text("# points\n" + "0.5 1.0\n" * B + "\n0.5 1.0\n# more\n" + bad + "\n0.0 1.0\n",
                    encoding="utf-8")
    with pytest.raises(SystemExit):
        run(tmp_path, "p.csv", "density", "--d", "2", "--points-file", str(path))
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "DomainError"
    assert error["message"] == f"line {B + 5} of the points file has a NaN coordinate"
    assert sorted(os.listdir(tmp_path)) == ["pts.txt"]


def test_only_the_origin_is_flagged_as_the_pole(tmp_path):
    # a point at infinity has density 0.0 and log density -inf: its null
    # cells are no pole; nor is a density past e^700 whose log is finite
    path = tmp_path / "pts.txt"
    path.write_text("inf 0.0\n0.0 -0.0\n1.0 -inf\n0.5 0.5\n", encoding="utf-8")
    docs = json.loads(run(tmp_path, "p.json", "density", "--d", "2", "--points-file", str(path),
                          "--format", "json"))
    assert [doc.get("pole", False) for doc in docs] == [False, True, False, False]
    assert docs[0] == {"x1": None, "x2": 0.0, "density": 0.0, "log_density": None}
    path.write_text(" ".join(["0.01"] + ["0"] * 342) + "\n", encoding="utf-8")
    doc, = json.loads(run(tmp_path, "d.json", "density", "--d", "343", "--points-file", str(path),
                          "--format", "json"))
    assert doc["density"] is None and doc["log_density"] > 700 and "pole" not in doc


def test_density_past_e700_is_the_library_value(tmp_path):
    # inf (JSON null) from a log density of 700 up before; now inf only past the largest float
    path = tmp_path / "pts.txt"
    path.write_text(" ".join(["0.0019"] + ["0"] * 99) + "\n", encoding="utf-8")
    doc, = json.loads(run(tmp_path, "d.json", "density", "--d", "100", "--points-file", str(path),
                          "--format", "json"))
    point = np.array([0.0019] + [0.0] * 99)
    assert doc["log_density"] > 700
    assert doc["density"] == density(GhsDistribution(100), point) == 6.856996653842772e305


def test_density_at_a_subnormal_scale_is_finite(tmp_path):
    # -inf and +inf, with RuntimeWarnings, before: r / sigma_theta overflows
    rows = run(tmp_path, "s.csv", "density", "--d", "2", "--sigma-theta", "1e-320",
               "--grid=0.5:1:0.5").splitlines()[1:]
    values = [float(c) for row in rows for c in row.split(",")[2:]]
    assert len(values) == 8 and all(map(math.isfinite, values))


def test_sample_past_the_float_range_is_a_numerical_error(tmp_path, capsys):
    # inf draws, with an overflow RuntimeWarning, before
    with pytest.raises(SystemExit) as exit_info:
        run(tmp_path, "s.csv", "sample", "--d", "2", "--n", "1e5", "--sigma-theta", "1e308",
            "--seed", "1")
    assert exit_info.value.code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "NumericalError"
    assert os.listdir(tmp_path) == []


def test_grid_stops_at_hi(tmp_path):
    # a step that does not divide hi - lo stops before hi; an exact
    # multiple reaches hi even where (hi - lo) / step rounds below it
    rows = run(tmp_path, "g.csv", "density", "--d", "1", "--grid=0:1:0.6").splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["0.0", "0.6"]
    assert cli._parse_grid("0:1:0.3", 1) == (0.0, 0.3, 4)
    assert cli._parse_grid("-3:3:0.1", 3) == (-3.0, 0.1, 61)
    assert cli._parse_grid("-1:1:0.00002", 1)[2] == 100001  # 2 / 0.00002 is 99999.99999999999
    # the tolerance stays below a step however long the span: no rows are made
    assert cli._parse_grid("0:2e9:1", 1)[2] == 2_000_000_001
    assert cli._parse_grid("0:2000000000.6:1", 1)[2] == 2_000_000_001
    assert cli._parse_grid("0:1e15:1", 1)[2] == 10**15 + 1
    rng = np.random.default_rng(29)
    for _ in range(500):
        lo, step = round(rng.uniform(-5, 5), 2), float(rng.choice([0.1, 0.05, 0.3, 0.6, 0.125, 0.007]))
        n, frac = int(rng.integers(0, 200)), float(rng.choice([0.0, 0.3, 0.5, 0.7, 0.999]))
        hi = round(lo + (n + frac) * step, 10)
        lo_, step_, count = cli._parse_grid(f"{lo!r}:{hi!r}:{step!r}", 1)
        assert count == n + 1, (lo, hi, step)
        assert lo + (count - 1) * step <= hi + 1e-9 * (hi - lo)


@pytest.mark.parametrize("n", [1, C - 1, C, C + 1, B - 1, B, B + 1, 2 * B + 3])
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
    # a block of repeating points, one of scattered points and one of
    # repeating points again, all formatted value by value; the last block
    # holds the pole
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
