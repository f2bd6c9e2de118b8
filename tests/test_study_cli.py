"""Study-runner and command-line tests: schema-stable outputs, determinism
across re-runs and worker pools, config handling, and error reporting.

Study runs here use tiny chains; statistical quality is covered elsewhere.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ghs.cli import _csv_chunks, _write_table, main
from ghs.study import GAMMA_HEADER, MISCLASS_HEADER, StudyConfig, load_reports, run_study

TINY_STUDY = {
    "n": [150],
    "sigma_eps": [0.5],
    "replications": 2,
    "seed": 11,
    "d_lin": 1,
    "d_nl": 3,
    "basis_size": 4,
    "iters": 120,
    "burn": 30,
}


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class TestStudyConfig:
    def test_paper_grid_has_twelve_cells(self):
        config = StudyConfig()
        assert len(config.scenarios) == 12
        assert config.n == (500, 1000, 2000)
        assert config.sigma_eps == (0.25, 0.5, 1.0, 2.0)

    def test_default_truth_pattern(self):
        config = StudyConfig()
        assert config.truth.count("zero") == 10
        assert config.truth.count("linear") == 10
        assert config.truth.count("non-linear") == 10

    def test_unknown_field_rejected(self):
        from ghs.errors import ConfigError

        with pytest.raises(ConfigError):
            StudyConfig.from_dict({"bogus_knob": 1})

    def test_roundtrip_through_dict(self):
        config = StudyConfig.from_dict(TINY_STUDY)
        again = StudyConfig.from_dict(config.to_dict())
        assert again == config

    def test_negative_seed_rejected(self):
        from ghs.errors import DomainError

        with pytest.raises(DomainError):
            StudyConfig(seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("iters", 20.5), ("iters", 120.0), ("burn", 2.5), ("replications", 1.5),
        ("threads", 1.5), ("threads", "2"), ("threads", 0), ("threads", -1),
        ("burn", -1), ("n", 1.5), ("n", [150, 0]), ("n", math.inf), ("n", math.nan),
        ("n", "150"), ("sigma_eps", math.nan), ("sigma_eps", [0.5, math.inf]),
        ("sigma_eps", -0.5),
    ])
    def test_bad_config_rejected_at_construction(self, field, value):
        from ghs.errors import ConfigError

        with pytest.raises(ConfigError):
            StudyConfig.from_dict({**TINY_STUDY, field: value})

    # each of these made every replication fail or run an improper model, or
    # ran a study other than the one asked for: seed 2.5 ran seed 2, basis
    # sizes [4.5, 4, 4] and [4, "4", 4] ran [4, 4, 4], an empty n or
    # sigma_eps list no replication, "no" saved the chains; the fields that
    # set the spline scale and the signal sizes are gone, so a config that
    # still sets one is refused as unknown
    REJECTED_BY_EVERY_REPLICATION = [
        ("truth", ["zero", "weird", "linear", "non-linear"]),
        ("truth", ["non-linear", "zero", "linear", "non-linear"]),
        ("basis_size", 1),
        ("basis_size", 4.5),
        ("basis_size", [4.5, 4, 4]),
        ("basis_size", [4, "4", 4]),
        ("basis_scale", 0.15),
        ("linear_coef", 1.0),
        ("nonlinear_amp", 1.0),
        ("d_nl", 0),
        ("d_nl", 1),
        ("hyper", {"s_u": 0}),
        ("hyper", {"intercept_sd": math.nan}),
        ("hyper", {"s_eps": -1}),
        ("hyper", {"s_u": math.inf}),
        ("hyper", {"s_bogus": 1.0}),
        ("seed", "7"),
        ("seed", 2.5),
        ("save_chains", "no"),
        ("truth", 5),
        ("n", []),
        ("sigma_eps", []),
    ]

    @pytest.mark.parametrize("field, value", REJECTED_BY_EVERY_REPLICATION)
    def test_model_rejected_at_construction(self, field, value):
        from ghs.errors import ConfigError

        with pytest.raises(ConfigError):
            StudyConfig.from_dict({**TINY_STUDY, field: value})

    def test_config_must_be_an_object(self, tmp_path, capsys):
        from ghs.errors import ConfigError

        with pytest.raises(ConfigError):
            StudyConfig.from_dict([1, 2])
        cfg = tmp_path / "study.json"
        cfg.write_text("[1, 2]")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not (tmp_path / "run").exists()

    def test_hyper_must_be_a_hyper(self):
        # a dict passed the constructor and failed in to_dict, inside run_study
        from ghs.errors import ConfigError

        with pytest.raises(ConfigError):
            StudyConfig(**TINY_STUDY, hyper={"s_u": 2.0})

    @pytest.mark.parametrize("field, value", REJECTED_BY_EVERY_REPLICATION)
    def test_simulate_rejects_bad_model_before_any_work(self, field, value, tmp_path, capsys):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({**TINY_STUDY, field: value}))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not (tmp_path / "run").exists()

    def test_whole_float_sizes_accepted(self):
        config = StudyConfig.from_dict({**TINY_STUDY, "n": [150.0, 2e2]})
        assert config.n == (150, 200)

    def test_simulate_rejects_bad_config_before_any_work(self, tmp_path, capsys):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({**TINY_STUDY, "iters": 20.5}))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not (tmp_path / "run").exists()


class TestStudyRunner:
    def test_outputs_and_determinism(self, tmp_path):
        config = StudyConfig.from_dict(TINY_STUDY)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        records1, failures1 = run_study(config, out1)
        records2, _ = run_study(config, out2)
        assert not failures1
        assert len(records1) == 2
        assert read(out1 / "misclassification.csv") == read(out2 / "misclassification.csv")
        assert read(out1 / "gamma_values.csv") == read(out2 / "gamma_values.csv")
        assert records1 == records2

    def test_aggregate_schema(self, tmp_path):
        config = StudyConfig.from_dict(TINY_STUDY)
        run_study(config, tmp_path / "run")
        mis = read(tmp_path / "run" / "misclassification.csv").splitlines()
        assert mis[0] == MISCLASS_HEADER
        assert len(mis) == 1 + 2 * 2  # two methods x two replications
        gam = read(tmp_path / "run" / "gamma_values.csv").splitlines()
        assert gam[0] == GAMMA_HEADER
        assert len(gam) == 1 + 2 * 4  # two replications x four predictors
        manifest = json.loads(read(tmp_path / "run" / "manifest.json"))
        assert manifest["completed"] == 2 and manifest["failed"] == []

    def test_parallel_schedule_independent(self, tmp_path):
        serial = StudyConfig.from_dict(TINY_STUDY)
        parallel = StudyConfig.from_dict({**TINY_STUDY, "threads": 2})
        run_study(serial, tmp_path / "s")
        run_study(parallel, tmp_path / "p")
        assert read(tmp_path / "s" / "misclassification.csv") == read(
            tmp_path / "p" / "misclassification.csv"
        )

    @pytest.mark.parametrize("replications, pools", [(2, [2]), (1, [])])
    def test_pool_has_no_more_workers_than_tasks(self, tmp_path, monkeypatch, replications, pools):
        # a fork pool starts all its workers at the first task: one per task at most
        import ghs.study as study_mod

        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(study_mod, "ProcessPoolExecutor", InProcessPool)
        study = {**TINY_STUDY, "replications": replications}
        run_study(StudyConfig.from_dict(study), tmp_path / "serial")
        run_study(StudyConfig.from_dict({**study, "threads": 8}), tmp_path / "pool")
        assert started == pools

        def files(root):
            return {
                p.relative_to(root): p.read_bytes()
                for p in root.rglob("*")
                if p.is_file() and p.name != "manifest.json"
            }

        assert files(tmp_path / "pool") == files(tmp_path / "serial")
        manifest = json.loads(read(tmp_path / "pool" / "manifest.json"))
        assert manifest["config"]["threads"] == 8

    def test_load_reports_matches_records(self, tmp_path):
        config = StudyConfig.from_dict(TINY_STUDY)
        records, _ = run_study(config, tmp_path / "run")
        loaded = load_reports(tmp_path / "run")
        assert loaded == records

    def test_replication_json_carries_sampler_diagnostics(self, tmp_path):
        config = StudyConfig.from_dict(TINY_STUDY)
        run_study(config, tmp_path / "run")
        rec = json.loads(read(tmp_path / "run" / "n150_sig0.5" / "rep00.json"))
        diag = rec["diagnostics"]
        assert set(diag) == {"inv_gamma_clipped", "var_floor_hits", "sig2_e_floor_hits"}
        assert all(type(v) is int and v >= 0 for v in diag.values())

    def test_save_chains_writes_csv(self, tmp_path):
        config = StudyConfig.from_dict({**TINY_STUDY, "replications": 1, "save_chains": True})
        run_study(config, tmp_path / "run")
        chain_csv = tmp_path / "run" / "n150_sig0.5" / "rep00_chain.csv"
        lines = read(chain_csv).splitlines()
        assert lines[0].startswith("beta0,beta_1")
        assert len(lines) == 1 + (TINY_STUDY["iters"] - TINY_STUDY["burn"])

    def test_partial_failure_recorded_in_manifest(self, tmp_path, monkeypatch):
        import ghs.study as study_mod

        real = study_mod.run_replication

        def flaky(config, n, sigma, rep, out_dir=None):
            if rep == 1:
                raise RuntimeError("synthetic failure")
            return real(config, n, sigma, rep, out_dir)

        monkeypatch.setattr(study_mod, "run_replication", flaky)
        config = StudyConfig.from_dict(TINY_STUDY)
        records, failures = run_study(config, tmp_path / "run")
        assert len(records) == 1 and len(failures) == 1
        assert failures[0]["replication"] == 1
        assert "synthetic failure" in failures[0]["error"]
        manifest = json.loads(read(tmp_path / "run" / "manifest.json"))
        assert manifest["completed"] == 1
        assert manifest["failed"][0]["replication"] == 1
        # the completed replication's aggregates are still written
        assert len(read(tmp_path / "run" / "misclassification.csv").splitlines()) == 3


class TestCli:
    def run(self, *argv):
        main(list(argv))

    def test_density_grid_csv(self, tmp_path):
        out = tmp_path / "dens.csv"
        self.run("density", "--d", "2", "--grid=-3:3:0.1", "--out", str(out))
        lines = read(out).splitlines()
        assert lines[0] == "x1,x2,density,log_density"
        assert len(lines) == 1 + 61 * 61
        # largest density on the grid should sit at a point nearest the origin
        rows = [line.split(",") for line in lines[1:]]
        best = max(rows, key=lambda r: float(r[2]))
        assert abs(float(best[0])) < 0.11 and abs(float(best[1])) < 0.11

    def test_density_pole_serialization(self, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("0.0\n1.0\n")
        out_csv = tmp_path / "pole.csv"
        self.run("density", "--d", "1", "--points-file", str(pts), "--out", str(out_csv))
        lines = read(out_csv).splitlines()
        assert lines[1] == "0.0,inf,inf"
        out_json = tmp_path / "pole.json"
        self.run(
            "density", "--d", "1", "--points-file", str(pts),
            "--out", str(out_json), "--format", "json",
        )
        docs = json.loads(read(out_json))
        assert docs[0]["density"] is None and docs[0]["pole"] is True
        assert docs[1]["density"] == pytest.approx(0.11719790339753267)

    def test_density_point_matches_library(self, tmp_path):
        from ghs.distribution import GhsDistribution, density

        pts = tmp_path / "p.txt"
        pts.write_text("1.0\n")
        out = tmp_path / "d.csv"
        self.run("density", "--d", "1", "--points-file", str(pts), "--out", str(out))
        val = float(read(out).splitlines()[1].split(",")[1])
        assert val == pytest.approx(density(GhsDistribution(1), [1.0]), rel=1e-12)

    def test_points_file_cells_are_the_point_densities(self, tmp_path):
        # a point's density was math.exp's and its cell np.exp's: 37 of these
        # 1,000 cells were one ulp off repr(density(point))
        from ghs.distribution import GhsDistribution, density, log_density

        rng = np.random.default_rng(7)
        points = rng.standard_normal((1000, 2)) * np.exp(rng.uniform(-3.0, 3.0, (1000, 1)))
        pts, out = tmp_path / "p.txt", tmp_path / "d.csv"
        pts.write_text("".join(f"{a!r} {b!r}\n" for a, b in points.tolist()))
        self.run("density", "--d", "2", "--points-file", str(pts), "--out", str(out))
        dist = GhsDistribution(2)
        cells = [line.split(",")[2:] for line in read(out).splitlines()[1:]]
        assert cells == [[repr(density(dist, p)), repr(log_density(dist, p))] for p in points]

    def test_density_rows_match_per_point_library(self, tmp_path):
        from ghs.distribution import GhsDistribution, log_density

        dist = GhsDistribution(2)
        for fmt in ("csv", "json"):
            out = tmp_path / f"dens.{fmt}"
            self.run("density", "--d", "2", "--grid=-1:1:0.25", "--out", str(out),
                     "--format", fmt)
            if fmt == "csv":
                lines = read(out).splitlines()[1:]
                rows = [[float(v) for v in line.split(",")] for line in lines]
            else:
                docs = json.loads(read(out))
                rows = [[doc["x1"], doc["x2"], doc["density"], doc["log_density"]]
                        for doc in docs]
            assert len(rows) == 81
            for x1, x2, dens, ld in rows:
                expected = log_density(dist, [x1, x2])
                if math.isinf(expected):  # the pole at the origin
                    assert x1 == x2 == 0.0
                    assert (dens, ld) == ((math.inf, math.inf) if fmt == "csv" else (None, None))
                    continue
                assert ld == pytest.approx(expected, rel=1e-14)
                assert dens == pytest.approx(math.exp(expected), rel=1e-14)

    def test_sample_determinism_and_schema(self, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for out in (out1, out2):
            self.run("sample", "--d", "3", "--n", "50", "--seed", "7", "--out", str(out))
        assert read(out1) == read(out2)
        lines = read(out1).splitlines()
        assert lines[0] == "lambda,x1,x2,x3"
        assert len(lines) == 51
        lam = np.array([float(line.split(",")[0]) for line in lines[1:]])
        assert np.all(lam > 0)

    def test_sample_requires_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run("sample", "--d", "1", "--n", "5", "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_csv_values_are_reprs(self, tmp_path):
        # repeated values share one repr; -0.0 must keep its sign
        pts = tmp_path / "pts.txt"
        pts.write_text("-0.0\n0.5\n0.0\n-0.5\n0.5\n")
        out = tmp_path / "d.csv"
        self.run("density", "--d", "1", "--points-file", str(pts), "--out", str(out))
        rows = [line.split(",") for line in read(out).splitlines()[1:]]
        assert [r[0] for r in rows] == ["-0.0", "0.5", "0.0", "-0.5", "0.5"]
        assert rows[0][1:] == rows[2][1:] == ["inf", "inf"]
        assert rows[1][1:] == rows[3][1:] == rows[4][1:]
        assert rows[1][2] == repr(float(rows[1][2]))

    @pytest.mark.parametrize("rows", [1, 8191, 8192, 8193, 20_000])
    def test_csv_writer_matches_repr_reference(self, rows):
        # a column that repeats, one that does not, and special values;
        # 8,192 rows per chunk
        specials = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 0.1]
        repeated = np.resize(specials, rows)
        distinct = np.random.default_rng(rows).standard_normal(rows) * 1e3
        distinct[: len(specials)] = specials[:rows]
        table = np.column_stack([repeated, distinct, repeated[::-1]])
        chunks = [c.decode() for c in _csv_chunks([table])]
        reference = "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
        assert "".join(chunks) == reference
        assert len(chunks) == -(-rows // 8192)

    @pytest.mark.parametrize("rows", [0, 1, 8193])
    def test_json_writer_matches_json_dumps(self, tmp_path, rows):
        # streamed JSON: the bytes of one json.dumps of the whole table, with
        # keys sorted as strings (x10 before x2) and "pole" among them on
        # density rows whose log density is +inf; a risk row's inf is no pole
        header = [f"x{i + 1}" for i in range(10)] + ["density", "log_density"]
        specials = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 0.1, 2.0]
        table = np.resize(specials, (rows, len(header)))
        table[:, 3] = np.random.default_rng(rows).standard_normal(rows)
        risk = [[1, 1000, 0.5, math.inf, math.inf], [2, 10**4, 1e-300, 3.0, math.nan]]
        for name, head, data, pole in (("t.json", header, table, True),
                                       ("r.json", list("dnmbv"), risk, False)):
            docs = []
            for row in data.tolist() if isinstance(data, np.ndarray) else data:
                docs.append({k: v if math.isfinite(v) else None for k, v in zip(head, row)})
                if pole and row[-1] == math.inf:
                    docs[-1]["pole"] = True
            if isinstance(data, np.ndarray):
                chunks = _csv_chunks([data])
            else:
                chunks = ["".join(",".join(map(repr, row)) + "\n" for row in data).encode()]
            _write_table(tmp_path / name, head, chunks, "json", pole)
            written = (tmp_path / name).read_text(encoding="utf-8")
            assert written == json.dumps(docs, indent=1, sort_keys=True) + "\n"

    def test_sample_count_is_a_whole_number(self, tmp_path, capsys):
        # --n 1e3 is a count, as in --n-grid; the bytes are those of --n 1000
        for n in ("1000", "1e3"):
            self.run("sample", "--d", "2", "--n", n, "--seed", "5",
                     "--out", str(tmp_path / f"{n}.csv"))
        assert read(tmp_path / "1000.csv") == read(tmp_path / "1e3.csv")
        with pytest.raises(SystemExit) as exc:
            self.run("sample", "--d", "2", "--n", "1.5", "--seed", "5",
                     "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"
        assert not (tmp_path / "x.csv").exists()

    def test_sample_negative_seed_is_domain_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run("sample", "--d", "1", "--n", "5", "--seed", "-1",
                     "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"

    def test_sample_infinite_scale_is_domain_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run("sample", "--d", "2", "--n", "5", "--seed", "1",
                     "--sigma-theta", "inf", "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["density", "--d", "1", "--grid=0:1:0.5", "--threads", "2"],
        ["density", "--d", "1", "--grid=0:1:0.5", "--seed", "1"],
        ["sample", "--d", "1", "--n", "5", "--seed", "1", "--threads", "2"],
        ["risk", "--d-list", "1", "--n-grid", "1e3", "--seed", "1"],
    ])
    def test_ignored_flags_are_gone(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            self.run(*argv, "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 2  # argparse: unrecognized argument

    def test_risk_bound_matches_library(self, tmp_path):
        from ghs.risk import RiskScenario, risk_upper_bound

        out = tmp_path / "risk.csv"
        self.run("risk", "--d-list", "2", "--theta0", "1,1", "--n-grid", "1e4",
                 "--out", str(out))
        row = read(out).splitlines()[1].split(",")
        assert float(row[3]) == risk_upper_bound(RiskScenario(2, 1.0, (1.0, 1.0)), 10**4)

    @pytest.mark.parametrize("theta0, coef", [(None, 1.0), ("1,1,1,1,1,1,1,1,1,1", 10)])
    def test_risk_normalized_bound_from_the_log_mass(self, tmp_path, theta0, coef):
        # n * bound - c log(n)/2 re-rounded 1 - log M: 15.991410522759326 at the
        # origin, n = 1e12, for (1 - log M) - log(n)/2 = 15.991410522759328
        import ghs.risk

        out = tmp_path / "risk.csv"
        self.run("risk", "--d-list", "10", *(["--theta0", theta0] if theta0 else []),
                 "--n-grid", "1e12", "--out", str(out))
        row = read(out).splitlines()[1].split(",")
        c = 0.0 if theta0 is None else math.hypot(*[1.0] * 10)
        log_mass = float(ghs.risk._ball_log_masses(10, np.array([math.sqrt(2e-12)]), c)[0])
        assert float(row[4]) == (1.0 - log_mass) - coef * math.log(1e12) / 2.0

    @pytest.mark.parametrize("d, theta0, n", [
        ("1", "1e200", "10"),
        ("100", ",".join(["1"] + ["0"] * 99), "1e8"),
    ])
    def test_risk_mass_below_the_normal_range_gives_its_bound(self, tmp_path, d, theta0, n):
        # a NumericalError before: the mass is 0.0 or subnormal, the bound (1 - log M)/n
        from ghs.risk import RiskScenario, risk_upper_bound

        out = tmp_path / "risk.csv"
        self.run("risk", "--d-list", d, "--theta0", theta0, "--n-grid", n, "--out", str(out))
        row = read(out).splitlines()[1].split(",")
        assert float(row[2]) < sys.float_info.min
        assert float(row[3]) == risk_upper_bound(RiskScenario(int(d), 1.0, map(float, theta0.split(","))), float(n))

    def test_risk_ball_past_the_float_range_is_numerical_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run("risk", "--d-list", "2", "--theta0", "1.7e308,1.7e308", "--n-grid", "2",
                     "--out", str(tmp_path / "risk.csv"))
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "NumericalError"

    def test_risk_table(self, tmp_path):
        out = tmp_path / "risk.csv"
        self.run(
            "risk", "--d-list", "1,2", "--sigma", "1.0",
            "--n-grid", "1e3,1e4", "--out", str(out),
        )
        lines = read(out).splitlines()
        assert lines[0] == "d,n,mass,bound,normalized_bound"
        assert len(lines) == 5
        rows = [line.split(",") for line in lines[1:]]
        d1 = [float(r[2]) for r in rows if r[0] == "1"]
        assert d1[1] < d1[0]  # mass decreasing in n

    def test_risk_off_origin(self, tmp_path):
        out = tmp_path / "risk2.csv"
        self.run(
            "risk", "--d-list", "2", "--theta0", "1,1",
            "--n-grid", "1e4,1e6", "--out", str(out),
        )
        rows = [line.split(",") for line in read(out).splitlines()[1:]]
        normalized = [float(r[4]) for r in rows]
        assert normalized[0] == pytest.approx(normalized[1], abs=0.01)

    def test_risk_theta0_of_zeros_is_the_origin_case(self, tmp_path):
        # a --theta0 of zeros took the off-origin normalization d log(n)/2
        # (-7.879 and -12.485 here, for the same masses): it is the origin
        args = ["risk", "--d-list", "3", "--n-grid", "1e4,1e6", "--out"]
        self.run(*args, str(tmp_path / "origin.csv"))
        self.run(*args, str(tmp_path / "zeros.csv"), "--theta0", "0,0,-0.0")
        assert read(tmp_path / "zeros.csv") == read(tmp_path / "origin.csv")

    def test_risk_negative_theta0_after_a_space(self, tmp_path):
        # "--theta0 -1,1" exited 2: argparse took "-1,1" for an option
        args = ["risk", "--d-list", "2", "--n-grid", "1e4,1e6", "--out"]
        self.run(*args, str(tmp_path / "joined.csv"), "--theta0=-1,1")
        self.run(*args, str(tmp_path / "spaced.csv"), "--theta0", "-1,1")
        assert read(tmp_path / "spaced.csv") == read(tmp_path / "joined.csv")

    @pytest.mark.parametrize("d_list, n_grid", [
        ("2.7", "1500"), ("2", "1500.5"), ("2", "1e3,inf"), ("1,2.5", "1e3"),
        # empty lists, as StudyConfig refuses an empty n
        (",", "10"), ("", "10"), ("2", ","), ("2", " , "),
        # below the least dimension (1) and the least sample size (2)
        ("0", "10"), ("2", "1"),
    ])
    def test_risk_rejects_fractional_sizes(self, tmp_path, capsys, d_list, n_grid):
        out = tmp_path / "risk.csv"
        with pytest.raises(SystemExit) as exc:
            self.run("risk", "--d-list", d_list, "--n-grid", n_grid, "--out", str(out))
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("d_list, n_grid, message", [
        ("2", "1.5", "--n-grid must be a whole number >= 2, got 1.5"),
        ("0.5", "10", "--d-list must be a whole number >= 1, got 0.5"),
    ])
    def test_risk_count_message_names_its_bound(self, tmp_path, capsys, d_list, n_grid, message):
        with pytest.raises(SystemExit):
            self.run("risk", "--d-list", d_list, "--n-grid", n_grid, "--out", str(tmp_path / "r.csv"))
        assert json.loads(capsys.readouterr().err)["message"] == message

    def test_risk_skips_empty_entries(self, tmp_path):
        out = tmp_path / "risk.csv"
        self.run("risk", "--d-list", "1,", "--n-grid", "10,,100", "--out", str(out))
        assert [line.split(",")[:2] for line in read(out).splitlines()[1:]] == [["1", "10"], ["1", "100"]]

    def test_risk_theta0_dimension_guard(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            self.run(
                "risk", "--d-list", "1,2", "--theta0", "1,1",
                "--n-grid", "1e3", "--out", str(tmp_path / "x.csv"),
            )
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("theta0", ["", ",", " , "])
    def test_risk_theta0_takes_one_or_more_values(self, tmp_path, capsys, theta0):
        # an empty --theta0 is not the origin case, which leaves --theta0 out
        out = tmp_path / "risk.csv"
        with pytest.raises(SystemExit) as exc:
            self.run("risk", "--d-list", "2", "--theta0", theta0, "--n-grid", "1e3",
                     "--out", str(out))
        assert exc.value.code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("--theta0 takes one or more values")
        assert not out.exists()

    def test_simulate_and_report_roundtrip(self, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(TINY_STUDY))
        run_dir = tmp_path / "run"
        self.run("simulate", "--config", str(cfg), "--out-dir", str(run_dir))
        assert (run_dir / "manifest.json").exists()
        rebuilt = tmp_path / "rebuilt"
        self.run("report", "--in-dir", str(run_dir), "--out-dir", str(rebuilt))
        assert read(run_dir / "misclassification.csv") == read(
            rebuilt / "misclassification.csv"
        )
        assert read(run_dir / "gamma_values.csv") == read(rebuilt / "gamma_values.csv")

    def test_simulate_seed_override_changes_results(self, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(TINY_STUDY))
        self.run("simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "a"))
        self.run(
            "simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "b"),
            "--seed", "999",
        )
        assert read(tmp_path / "a" / "gamma_values.csv") != read(
            tmp_path / "b" / "gamma_values.csv"
        )

    def test_simulate_failed_replication_exits_with_partial_failure(self, tmp_path, capsys):
        # five predictor values are fewer than K + 2 = 6, so the replication
        # raises DegenerateError inside the study and the run still finishes
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({
            "n": [5], "sigma_eps": [0.5], "replications": 1, "d_lin": 1, "d_nl": 2,
            "basis_size": 4, "iters": 20, "burn": 5,
        }))
        with pytest.raises(SystemExit) as exc, pytest.warns(UserWarning, match="sample size"):
            self.run("simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "a"))
        assert exc.value.code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PartialFailure"
        assert len(err["failures"]) == 1 and "DegenerateError" in err["failures"][0]["error"]
        manifest = json.loads(read(tmp_path / "a" / "manifest.json"))
        assert manifest["completed"] == 0 and manifest["failed"] == err["failures"]

    def test_simulate_negative_seed_is_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(TINY_STUDY))
        with pytest.raises(SystemExit) as exc:
            self.run("simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "a"),
                     "--seed", "-1")
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"
        assert not (tmp_path / "a").exists()

    def test_error_json_on_bad_input(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run("density", "--d", "1", "--out", str(tmp_path / "o.csv"))
        assert exc.value.code == 1
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error", "message"}

    @pytest.mark.parametrize("spec", [
        "0:inf:1", "-inf:0:1", "0:1:inf", "-1e308:1e308:1e-300", "0:1e300:1e-300",
        "0:1:nan", "nan:1:0.5", "0:1", "0:1:0.5:2", "0:1:", "a:b:c", "1:0:0.5", "0:1:0",
        "0:1:-0.5",
    ])
    def test_bad_grid_spec_is_config_error(self, tmp_path, capsys, spec):
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            self.run("density", "--d", "1", f"--grid={spec}", "--out", str(out))
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not os.listdir(tmp_path)

    def test_grid_with_too_many_rows_is_config_error(self, tmp_path, capsys):
        # 10^21 rows: more than a row index can hold
        with pytest.raises(SystemExit) as exc:
            self.run("density", "--d", "3", "--grid=0:1e7:1", "--out", str(tmp_path / "o.csv"))
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_points_file_dimension_guard(self, tmp_path, capsys):
        pts = tmp_path / "pts.txt"
        pts.write_text("1.0,2.0\n")
        with pytest.raises(SystemExit):
            self.run(
                "density", "--d", "3", "--points-file", str(pts),
                "--out", str(tmp_path / "o.csv"),
            )
        assert json.loads(capsys.readouterr().err)["error"] == "DimensionError"

    def test_points_file_unparsable_line_is_config_error(self, tmp_path, capsys):
        # the bad line comes after a full block, so rows were written
        # before it: the error names its 1-based line, and no file is left
        pts = tmp_path / "pts.txt"
        pts.write_text("# points\n" + "0.5\n" * 65536 + "\n0x10\n")
        with pytest.raises(SystemExit) as exc:
            self.run("density", "--d", "1", "--points-file", str(pts),
                     "--out", str(tmp_path / "o.csv"))
        assert exc.value.code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "line 65539" in err["message"]
        assert sorted(os.listdir(tmp_path)) == ["pts.txt"]

    def test_report_empty_dir_fails_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            self.run("report", "--in-dir", str(tmp_path))
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_entry_point_subprocess(self, tmp_path):
        # exit code 0 and stable bytes through the installed console script
        out = tmp_path / "cli.csv"
        res = subprocess.run(
            [sys.executable, "-m", "ghs.cli", "sample", "--d", "1", "--n", "3",
             "--seed", "1", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0
        assert read(out).splitlines()[0] == "lambda,x1"
