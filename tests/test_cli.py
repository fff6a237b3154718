import ast
import csv
import json
from pathlib import Path

import pytest

from poifair import config, fusion, pipeline
from poifair.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_STAGE, build_parser, main
from poifair.config import ExperimentConfig
from poifair.recommend import MODEL_NAMES
from poifair.synth import SynthConfig, generate, write_tsv


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixture")
    ds = generate(SynthConfig(n_users=60, n_clusters=4, pois_per_cluster=10, seed=11))
    return write_tsv(ds, root)


def write_config(tmp_path, paths, **overrides):
    cfg = {
        "checkin_path": str(paths["checkins"]),
        "poi_path": str(paths["pois"]),
        "social_path": str(paths["social"]),
        "out_dir": str(tmp_path / "out"),
        "cutoffs": [10],
        "models": ["geosoca"],
        "fusion_rules": ["product", "sum"],
    }
    cfg.update(overrides)
    path = tmp_path / f"config_{abs(hash(json.dumps(cfg, sort_keys=True)))}.json"
    path.write_text(json.dumps(cfg))
    return path


def users_skipped(out):
    """Per model, the users table3.json reports as skipped for want of a
    test POI, after checking that every row of the model agrees."""
    skipped = {}
    for r in json.loads((out / "table3.json").read_text()):
        assert skipped.setdefault(r["model"], r["n_users_skipped"]) == r["n_users_skipped"]
    return skipped


class TestConfig:
    def test_defaults_carry_protocol_constants(self):
        cfg = ExperimentConfig(checkin_path="x", poi_path="y")
        assert cfg.min_user_checkins == 15
        assert cfg.min_poi_checkins == 10
        assert (cfg.train_frac, cfg.val_frac, cfg.test_frac) == (0.7, 0.1, 0.2)
        assert (cfg.work_start_hour, cfg.work_end_hour) == (8, 18)
        assert cfg.group_quantile == 0.2
        assert cfg.seed == 42

    def test_names_come_from_the_modules(self):
        """config.py spells no model, fusion-rule or sweep-objective name; it
        takes them from the modules that implement them."""
        names = {*MODEL_NAMES, *fusion.RULES, *fusion.OBJECTIVES}
        tree = ast.parse(Path(config.__file__).read_text(encoding="utf-8"))
        spelled = [
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in names
        ]
        assert spelled == []

    def test_unknown_key_rejected(self, tmp_path, fixture_files, capsys):
        path = write_config(tmp_path, fixture_files, mystery=1)
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        # A removed key is unknown too: the rules ranked decide the sweep.
        path = write_config(tmp_path, fixture_files, run_sweep=True)
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines()[-1] == (
            "config error: unknown config keys: ['run_sweep']"
        )

    def test_missing_input_file(self, tmp_path, fixture_files):
        path = write_config(tmp_path, fixture_files, poi_path="/nope/pois.tsv")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("overrides", [
        {"train_frac": 0.8, "val_frac": -0.1, "test_frac": 0.3},
        {"amc_alpha": 1.5},
        {"amc_memory": 0},
        {"sweep_objective": "max_acc_unff"},
        {"sweep_step": 0.3},
        {"sweep_step": 0},
        {"work_start_hour": 18, "work_end_hour": 8},
        {"work_end_hour": 25},
        {"min_user_checkins": -1},
        {"min_poi_checkins": -1},
        {"cutoffs": []},
        {"models": []},
        {"fusion_rules": []},
        {"models": ["geosoca", "geosoca"]},
        {"fusion_rules": ["sum", "sum"]},
        {"cutoffs": [10, 10]},
        {"cutoffs": ["10"]},
        {"cutoffs": [True]},
        {"sweep_step": "0.1"},
        {"run_sweep": "no"},  # removed key: the rules ranked decide the sweep
        {"min_user_checkins": 2.5},
        {"train_frac": float("nan")},
        {"session_gap_hours": float("nan")},
        {"session_gap_hours": float("inf")},
        {"session_gap_hours": 0},
        {"session_gap_hours": -1.0},
    ], ids=[
        "negative-split-fraction", "amc-alpha", "amc-memory",
        "unknown-sweep-objective", "sweep-step-not-dividing-1", "sweep-step-zero",
        "work-window-wrapping-midnight", "work-window-past-24",
        "negative-min-user-checkins", "negative-min-poi-checkins",
        "no-cutoffs", "no-models", "no-fusion-rules",
        "repeated-model", "repeated-fusion-rule", "repeated-cutoff",
        "string-cutoff", "bool-cutoff", "string-sweep-step", "string-run-sweep",
        "fractional-min-user-checkins", "nan-train-frac", "nan-session-gap",
        "infinite-session-gap", "zero-session-gap", "negative-session-gap",
    ])
    def test_out_of_range_value_rejected(self, tmp_path, fixture_files, overrides, capsys):
        path = write_config(tmp_path, fixture_files, **{"models": ["lore"], **overrides})
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("content", [b"[]", b"1", b"null", b'{"seed": "\xff"}'],
                             ids=["array", "number", "null", "not-utf-8"])
    def test_config_file_not_a_json_object_rejected(self, tmp_path, content, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")


class TestRun:
    def test_end_to_end_artifacts(self, tmp_path, fixture_files):
        path = write_config(tmp_path, fixture_files)
        assert main(["run", "--config", str(path)]) == EXIT_OK
        out = tmp_path / "out"
        for name in (
            "manifest.json", "load_report.json", "dataset_stats.json",
            "histogram.csv", "profiles.csv", "groups.csv", "correlations.json",
            "table3.csv", "table3.json",
            "recommendations_geosoca_product.tsv",
            "recommendations_geosoca_sum.tsv",
        ):
            assert (out / name).is_file(), name
        with (out / "table3.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        # one row per (model, fusion, N)
        assert len(rows) == 2
        assert rows[0]["model"] == "geosoca"
        manifest = json.loads((out / "manifest.json").read_text())
        assert "config_sha256" in manifest and "timings_s" in manifest

    def test_report_roundtrip_within_tolerance(self, tmp_path, fixture_files):
        path = write_config(tmp_path, fixture_files)
        assert main(["run", "--config", str(path)]) == EXIT_OK
        out = tmp_path / "out"
        reports = json.loads((out / "table3.json").read_text())
        with (out / "table3.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        for rep, row in zip(reports, rows):
            assert abs(float(row["nDCG"]) - rep["ndcg"]) < 1e-9
            assert abs(float(row["dnDCG"]) - rep["delta_ndcg"]) < 1e-9

    def test_determinism_byte_identical(self, tmp_path, fixture_files):
        p1 = write_config(tmp_path, fixture_files, out_dir=str(tmp_path / "o1"))
        p2 = write_config(tmp_path, fixture_files, out_dir=str(tmp_path / "o2"))
        assert main(["run", "--config", str(p1)]) == EXIT_OK
        assert main(["run", "--config", str(p2)]) == EXIT_OK
        a = (tmp_path / "o1" / "table3.csv").read_bytes()
        b = (tmp_path / "o2" / "table3.csv").read_bytes()
        assert a == b

    def test_sweep_emits_66_rows(self, tmp_path, fixture_files):
        """Weighted-sum fusion runs the sweep."""
        path = write_config(tmp_path, fixture_files, fusion_rules=["product", "weighted_sum"])
        assert main(["run", "--config", str(path)]) == EXIT_OK
        with (tmp_path / "out" / "sweep.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 66  # one model, full 0.1 simplex grid

    def test_recommend_and_evaluate_write_the_same_artifacts(self, tmp_path, fixture_files):
        """run writes every artifact that recommend and evaluate, its removed
        aliases, wrote; sweep ranks only the grid, yet writes the same
        sweep.csv as run, and no table and no lists."""
        path = write_config(tmp_path, fixture_files, fusion_rules=["product", "weighted_sum"])
        outs = {}
        for command in ("run", "sweep"):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_OK
            outs[command] = {
                f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"
            }
        assert "table3.csv" in outs["run"]
        assert "sweep.csv" in outs["run"]
        assert "recommendations_geosoca_weighted_sum.tsv" in outs["run"]
        assert outs["sweep"] == {
            name: data for name, data in outs["run"].items()
            if not name.startswith(("table3.", "recommendations_"))
        }

    def test_data_error_exit_code(self, tmp_path, fixture_files):
        bad = tmp_path / "bad_checkins.tsv"
        bad.write_text("u1\tmissing_poi\t1000\n")
        path = write_config(tmp_path, fixture_files, checkin_path=str(bad))
        assert main(["run", "--config", str(path)]) == EXIT_DATA

    def test_stage_failure_writes_a_partial_manifest(self, tmp_path, fixture_files, monkeypatch):
        """A failed split: exit 4 and manifest.json.partial with what the
        stages before it recorded and the stage and error that ended the
        run; a later successful run in the same directory replaces it."""
        def no_split(*args):
            raise RuntimeError("no split")

        monkeypatch.setattr(pipeline, "temporal_split", no_split)
        path = write_config(tmp_path, fixture_files)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path)]) == EXIT_STAGE
        assert not (out / "manifest.json").exists()
        manifest = json.loads((out / "manifest.json.partial").read_text())
        assert manifest["failed_stage"] == "split"
        assert manifest["error"] == "RuntimeError: no split"
        assert {"parse", "preprocess"} <= set(manifest["timings_s"])
        assert {"parse", "preprocess", "split"} == set(manifest["peak_rss_mb"])
        assert "preprocess.short_users_removed" in manifest["counts"]

        monkeypatch.undo()
        assert main(["run", "--config", str(path)]) == EXIT_OK
        assert not (out / "manifest.json.partial").exists()
        assert set(json.loads((out / "manifest.json").read_text())) == set(manifest) - {
            "failed_stage", "error",
        }

    @pytest.mark.parametrize("n_users,quantile,condition", [
        (4, 0.2, "need at least 5 users with training check-ins to form the groups, got 4"),
        (5, 0.1, "empty group: leisure-focused"),
    ], ids=["too-few-users", "empty-group"])
    def test_too_small_for_the_groups_is_a_data_error(
        self, tmp_path, capsys, n_users, quantile, condition
    ):
        """Users with 40 check-ins each pass both filters at 1, but too few
        to form the fairness groups (or a quantile of them that rounds to
        none): exit 3, naming the condition, not a stage failure."""
        data = tmp_path / "data"
        data.mkdir()
        (data / "pois.tsv").write_text("".join(f"p{i}\t40.0\t-100.0\tc\n" for i in range(8)))
        (data / "checkins.tsv").write_text("".join(
            f"u{u}\tp{(u + t) % 8}\t{1_300_000_000 + 3600 * (40 * u + t)}\n"
            for u in range(n_users) for t in range(40)
        ))
        (data / "social.tsv").write_text("u0\tu1\n")
        paths = {name: data / f"{name}.tsv" for name in ("checkins", "pois", "social")}
        path = write_config(
            tmp_path, paths, min_user_checkins=1, min_poi_checkins=1, group_quantile=quantile
        )
        assert main(["analyze", "--config", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err.strip() == f"data error in stage 'analyze': {condition}"
        manifest = json.loads((tmp_path / "out" / "manifest.json.partial").read_text())
        assert manifest["failed_stage"] == "analyze"

    @pytest.mark.parametrize("rules", [
        ["product", "sum"], ["weighted_sum"],
    ], ids=["no-test-split", "no-test-split-after-sweep"])
    def test_no_user_to_score_is_a_data_error(self, tmp_path, fixture_files, capsys, rules):
        """A test fraction of 0.01 gives no fixture user, each with under 100
        check-ins, a test row: evaluate, after the sweep if weighted-sum is
        ranked, has no user with a relevant POI, and the run exits 3, naming
        the condition, not a stage failure."""
        path = write_config(
            tmp_path, fixture_files, train_frac=0.89, val_frac=0.1, test_frac=0.01,
            fusion_rules=rules,
        )
        assert main(["run", "--config", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err.strip() == (
            "data error in stage 'evaluate': "
            "geosoca: no ranked user has a relevant POI in the test split"
        )
        manifest = json.loads((tmp_path / "out" / "manifest.json.partial").read_text())
        assert manifest["failed_stage"] == "evaluate"

    @pytest.mark.parametrize("command,fracs,rules,text", [
        ("run", (0.9, 0.1, 0.0), ["product", "sum"],
         "run evaluates on the test split: test_frac must be > 0"),
        ("run", (0.8, 0.0, 0.2), ["product", "weighted_sum"],
         "the weighted-sum sweep tunes on validation: val_frac must be > 0"),
        ("sweep", (0.8, 0.0, 0.2), ["product", "sum"],
         "the weighted-sum sweep tunes on validation: val_frac must be > 0"),
    ], ids=["no-test-split", "no-validation-split", "sweep-no-validation-split"])
    def test_empty_scored_split_is_a_config_error(
        self, tmp_path, fixture_files, capsys, command, fracs, rules, text
    ):
        """An empty part that a stage scores exits 2 before any stage runs,
        with no out_dir made; preprocess and analyze, which score no part,
        accept it."""
        train, val, test = fracs
        path = write_config(
            tmp_path, fixture_files, train_frac=train, val_frac=val, test_frac=test,
            fusion_rules=rules,
        )
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.strip() == f"config error: {text}"
        assert not (tmp_path / "out").exists()
        for unscored in ("preprocess", "analyze"):
            assert main([unscored, "--config", str(path)]) == EXIT_OK

    @pytest.mark.parametrize("kind,text", [
        ("checkin_path", b"u0000\tp0000\t1000\r\nu\xff\tp0000\t2000\r\n"),
        ("poi_path", b"p0000\t40\t-100\t\r\np\xff\t40\t-100\t\r\n"),
        ("social_path", b"u0000\tu0001\r\nu\xff\tu0001\r\n"),
    ], ids=["checkins", "pois", "social"])
    def test_invalid_utf8_is_a_data_error_naming_file_and_line(
        self, tmp_path, fixture_files, capsys, kind, text
    ):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(text)
        path = write_config(tmp_path, fixture_files, **{kind: str(bad)})
        assert main(["analyze", "--config", str(path)]) == EXIT_DATA
        assert f"line 2 of {bad} is not valid UTF-8" in capsys.readouterr().err

    def test_subcommands(self, tmp_path, fixture_files):
        path = write_config(tmp_path, fixture_files)
        assert main(["preprocess", "--config", str(path)]) == EXIT_OK
        assert (tmp_path / "out" / "dataset_stats.json").is_file()
        assert main(["analyze", "--config", str(path)]) == EXIT_OK
        assert (tmp_path / "out" / "histogram.csv").is_file()
        assert main(["run", "--config", str(path)]) == EXIT_OK
        assert (tmp_path / "out" / "table3.csv").is_file()
        # Without weighted-sum fusion, run does not sweep.
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_commands_are_named_once(self, tmp_path, fixture_files):
        """The parser's subcommands, with their help, are pipeline.COMMANDS,
        and run_pipeline rejects any other command; the parser exits 2 for
        `recommend` and `evaluate`, the removed aliases of run."""
        subs = next(a for a in build_parser()._actions if a.dest == "command")
        assert list(subs.choices) == list(pipeline.COMMANDS) == [
            "preprocess", "analyze", "sweep", "run",
        ]
        assert {a.dest: a.help for a in subs._choices_actions} == pipeline.COMMANDS
        path = write_config(tmp_path, fixture_files)
        cfg = ExperimentConfig.from_json(path)
        with pytest.raises(ValueError, match="unknown command 'fit'"):
            pipeline.run_pipeline(cfg, "fit")
        for command in ("recommend", "evaluate"):
            with pytest.raises(SystemExit) as raised:
                main([command, "--config", str(path)])
            assert raised.value.code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["-v", "--verbose"])
    def test_verbose_flag_is_gone(self, tmp_path, fixture_files, flag):
        """No code logs below INFO, so there is no flag to show it: the
        parser exits 2 for -v and --verbose, and nothing is written."""
        path = write_config(tmp_path, fixture_files)
        with pytest.raises(SystemExit) as raised:
            main([flag, "run", "--config", str(path)])
        assert raised.value.code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_user_left_below_three_is_dropped_not_fatal(self, tmp_path, fixture_files):
        # A passes the 15-check-in user filter, then loses 13 check-ins to
        # POIs below the 10-check-in POI filter; split would need 3.
        rows = [f"A\tr{i}\t{1_300_000_000 + 3600 * i}" for i in range(13)]
        rows += [f"A\thub\t{1_300_100_000 + 3600 * i}" for i in range(2)]
        rows += [
            f"x{j}\thub\t{1_300_000_000 + 86400 * j + 3600 * i}"
            for j in range(6) for i in range(15)
        ]
        checkins = tmp_path / "checkins.tsv"
        checkins.write_text("".join(r + "\n" for r in rows))
        pois = tmp_path / "pois.tsv"
        pois.write_text("".join(
            f"{p}\t40.0\t-100.0\t\n" for p in ["hub"] + [f"r{i}" for i in range(13)]
        ))
        path = write_config(
            tmp_path, fixture_files, checkin_path=str(checkins), poi_path=str(pois),
            social_path=None,
        )
        assert main(["analyze", "--config", str(path)]) == EXIT_OK
        out = tmp_path / "out"
        assert json.loads((out / "manifest.json").read_text())["counts"] == {
            "parse.blocks": 2,
            "preprocess.short_checkins_removed": 2,
            "preprocess.short_users_removed": 1,
        }
        assert json.loads((out / "dataset_stats.json").read_text())["filter"] == {
            "users_removed": 1, "pois_removed": 13, "checkins_removed": 15,
        }
        with (out / "profiles.csv").open() as fh:
            assert [r["user_id"] for r in csv.DictReader(fh)] == [f"x{j}" for j in range(6)]

    def test_users_without_training_rows_are_skipped_and_counted(self, tmp_path):
        # floor(0.02 * n) is 0 for a user with fewer than 50 check-ins.
        ds = generate(SynthConfig(n_users=80))
        paths = write_tsv(ds, tmp_path / "data")
        path = write_config(
            tmp_path, paths, models=["geosoca", "lore"],
            train_frac=0.02, val_frac=0.38, test_frac=0.6,
        )
        assert main(["run", "--config", str(path)]) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "table3.csv").is_file()
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        assert counts["recommend.users_without_train"] > 0
        with (out / "profiles.csv").open() as fh:
            n_trained = len(list(csv.DictReader(fh)))
        for name in ("geosoca", "lore"):
            with (out / f"recommendations_{name}_product.tsv").open() as fh:
                listed = {row[0] for row in csv.reader(fh, delimiter="\t")}
            assert counts[f"recommend.users_ranked.{name}"] == len(listed) == n_trained
            assert counts[f"recommend.empty_candidate_users.{name}"] == 0
            assert counts[f"recommend.candidates.{name}"] >= len(listed)
        skipped = users_skipped(out)
        for name in ("geosoca", "lore"):
            assert counts[f"evaluate.users_without_test.{name}"] == skipped[name]
            assert f"sweep.users_without_validation.{name}" not in counts

    def test_ranking_counts_leave_out_a_user_with_no_candidate(self, tmp_path, fixture_files):
        # "everywhere" visits every POI twice over; its first 70% already
        # covers them all, so no POI is left to recommend to it.
        pois = [line.split("\t")[0] for line in fixture_files["pois"].read_text().splitlines()]
        checkins = tmp_path / "checkins.tsv"
        checkins.write_text(fixture_files["checkins"].read_text() + "".join(
            f"everywhere\t{p}\t{1_300_000_000 + 3600 * i}\n" for i, p in enumerate(pois * 2)
        ))
        path = write_config(
            tmp_path, fixture_files, checkin_path=str(checkins), models=["geosoca", "lore"],
            fusion_rules=["product", "sum", "weighted_sum"],
        )
        assert main(["run", "--config", str(path)]) == EXIT_OK
        out = tmp_path / "out"
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        with (out / "profiles.csv").open() as fh:
            n_trained = len(list(csv.DictReader(fh)))
        for name in ("geosoca", "lore"):
            for rule in ("product", "sum", "weighted_sum"):
                with (out / f"recommendations_{name}_{rule}.tsv").open() as fh:
                    listed = [row[0] for row in csv.reader(fh, delimiter="\t")]
                assert "everywhere" not in listed
                assert counts[f"recommend.users_ranked.{name}"] == len(set(listed))
            assert counts[f"recommend.empty_candidate_users.{name}"] == 1
            assert counts[f"recommend.users_ranked.{name}"] == n_trained - 1
            # Every ranked user has a full list of 10 and more candidates.
            assert counts[f"recommend.candidates.{name}"] > 10 * (n_trained - 1)
            assert counts[f"sweep.users_without_validation.{name}"] <= n_trained - 1
            assert counts[f"evaluate.users_without_test.{name}"] == users_skipped(out)[name]
            assert counts[f"recommend.power_law_fallbacks.{name}"] == 0
        assert counts["recommend.users_without_train"] == 0

    @pytest.mark.parametrize("social", [True, False], ids=["friends", "no-friends"])
    def test_power_law_fallbacks_are_counted(self, tmp_path, fixture_files, social):
        # Without friendships GeoSoCa has no positive social frequency to fit.
        path = write_config(
            tmp_path, fixture_files, models=["geosoca", "lore"],
            social_path=str(fixture_files["social"]) if social else None,
        )
        assert main(["run", "--config", str(path)]) == EXIT_OK
        counts = json.loads((tmp_path / "out" / "manifest.json").read_text())["counts"]
        assert counts["recommend.power_law_fallbacks.geosoca"] == (0 if social else 1)
        assert counts["recommend.power_law_fallbacks.lore"] == 0

    def test_out_override(self, tmp_path, fixture_files):
        path = write_config(tmp_path, fixture_files)
        other = tmp_path / "elsewhere"
        assert main(["run", "--config", str(path), "--out", str(other)]) == EXIT_OK
        assert (other / "table3.csv").is_file()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("flag", [False, True], ids=["out_dir", "--out"])
    def test_unusable_out_dir_is_a_config_error(
        self, tmp_path, fixture_files, capsys, under, flag
    ):
        """An out_dir, or --out, that is an existing file or lies under one:
        exit 2 with one config error line, and nothing written."""
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out = blocker / "out" if under else blocker
        path = write_config(tmp_path, fixture_files, **{} if flag else {"out_dir": str(out)})
        before = sorted(tmp_path.rglob("*"))
        argv = ["run", "--config", str(path)] + (["--out", str(out)] if flag else [])
        assert main(argv) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: unusable out_dir {str(out)!r}: ")
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text() == "not a directory\n"
