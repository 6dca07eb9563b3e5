import io
import json

import pytest

from incidencelab import cli


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_usage_error(self):
        assert_one_line_exit(["count", "--mode", "warp"], cli.EXIT_USAGE)

    def test_unknown_command(self):
        assert_one_line_exit(["frobnicate"], cli.EXIT_USAGE)

    def test_help(self, capsys):
        code, _, err = run(["count", "--help"])
        assert (code, err) == (cli.EXIT_OK, "")
        assert "--histograms" in capsys.readouterr().out

    def test_infeasible_spec(self):
        code, _, err = run(["count", "--kind", "pencil", "--m", "3", "--n", "5"])
        assert code == cli.EXIT_INFEASIBLE
        assert "infeasible" in err

    def test_ok(self):
        code, _, _ = run(["count", "--kind", "pencil", "--m", "1", "--n", "5"])
        assert code == cli.EXIT_OK


def assert_one_line_exit(argv, code_wanted):
    code, _, err = run(argv)
    assert code == code_wanted
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


class TestBadInput:
    def test_malformed_input_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "tangency",\n  broken')
        assert_one_line_exit(["count", "--input", str(path)], cli.EXIT_USAGE)

    @pytest.mark.parametrize("obj", [
        {"kind": "tangency", "points": [], "curves": [{"c": ["0", "0"], "r2": "-1"}]},
        {"kind": "tangency", "points": [], "curves": [{"r2": "1"}]},
        {"kind": "nope", "points": [], "curves": []},
    ], ids=["negative-r2", "missing-key", "unknown-kind"])
    def test_invalid_instance_objects(self, tmp_path, obj):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(obj))
        assert_one_line_exit(["count", "--input", str(path)], cli.EXIT_USAGE)

    def test_rich_threshold_zero(self):
        assert_one_line_exit(["rich", "--kind", "pencil", "--m", "1", "--n", "3", "--t", "0"],
                             cli.EXIT_USAGE)

    def test_partition_too_few_points(self):
        assert_one_line_exit(["partition", "--kind", "random-tangency", "--m", "3", "--n", "0",
                              "--levels", "2"], cli.EXIT_INFEASIBLE)

    @pytest.mark.parametrize("command, fields", [
        ("count", {"threads": "2"}),
        ("count", {"m": "5"}),
        ("partition", {"levels": "2"}),
        ("count", {"mode": "fast"}),
        ("count", {"format": "xml"}),
        ("count", {"m": True}),
        ("count", {"out": 3}),
    ], ids=["threads-str", "m-str", "levels-str", "mode-choice", "format-choice", "m-bool", "out-int"])
    def test_config_value_of_wrong_type(self, tmp_path, command, fields):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "pencil", "m": 1, "n": 3, **fields}))
        assert_one_line_exit([command, "--config", str(cfg)], cli.EXIT_USAGE)
        _, _, err = run([command, "--config", str(cfg)])
        assert err.startswith(f"invalid config field {next(iter(fields))}: ")

    @pytest.mark.parametrize("text", ["5", "[1, 2]"])
    def test_config_not_an_object(self, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert_one_line_exit(["count", "--config", str(cfg)], cli.EXIT_USAGE)

    @pytest.mark.parametrize("flags", [
        ["--coord-range", "0"],
        ["--den-bound", "0"],
        ["--kind", "pencil", "--m", "1", "--n", "5", "--coord-range", "1", "--den-bound", "1"],
    ], ids=["coord-range-0", "den-bound-0", "pencil-too-few-offsets"])
    def test_generator_ranges_too_small(self, flags):
        assert_one_line_exit(["count", *flags], cli.EXIT_INFEASIBLE)

    @pytest.mark.parametrize("argv, code", [
        (["scan", "--family", "random-tangency", "--base", "0", "--steps", "2"], cli.EXIT_USAGE),
        (["scan", "--family", "st-grid", "--z-levels", "0", "--steps", "1"], cli.EXIT_INFEASIBLE),
        (["count", "--kind", "st-grid-horizontal-lines", "--m", "16", "--n", "16", "--z-levels", "0"],
         cli.EXIT_INFEASIBLE),
        (["scan", "--family", "pencil", "--steps", "0"], cli.EXIT_USAGE),
        (["scan", "--family", "pencil", "--steps", "-2"], cli.EXIT_USAGE),
    ], ids=["scan-base-0", "scan-z-levels-0", "count-z-levels-0", "steps-0", "steps-negative"])
    def test_sizes_below_one(self, argv, code):
        assert_one_line_exit(argv, code)

    @pytest.mark.parametrize("flag, target", [
        ("--out", "."), ("--input", "."), ("--out", "missing/x.json"), ("--input", "missing.json"),
    ], ids=["out-directory", "input-directory", "out-missing-directory", "input-missing"])
    def test_file_errors(self, tmp_path, flag, target):
        path = str(tmp_path / target)
        argv = ["count", "--kind", "pencil", "--m", "1", "--n", "3", flag, path]
        assert_one_line_exit(argv, cli.EXIT_USAGE)
        _, _, err = run(argv)
        assert err.startswith(f"cannot access {path}: ")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads(self, threads):
        assert_one_line_exit(["count", "--kind", "pencil", "--m", "1", "--n", "3",
                              "--threads", threads], cli.EXIT_USAGE)


# A value for each flag that some subcommand does not take.
FLAG_ARGS = {
    "--threads": ["2"], "--format": ["csv"], "--out": ["out.json"], "--mode": ["prefilter"],
    "--kind": ["pencil"], "--m": ["1"], "--n": ["3"], "--input": ["missing.json"],
    "--coord-range": ["9"], "--den-bound": ["9"], "--z-levels": ["2"], "--histograms": [],
}
# A cheap run of each subcommand, before the flag it does not take.
BASE_ARGS = {
    "generate": ["--kind", "pencil", "--m", "1", "--n", "3"],
    "rich": ["--kind", "pencil", "--m", "1", "--n", "3"],
    "partition": ["--kind", "random-tangency", "--m", "16", "--n", "0"],
    "dual": ["--kind", "pencil", "--m", "1", "--n", "3"],
    "scan": ["--family", "pencil", "--base", "4", "--steps", "3"],
    "verify": ["--quick"],
}
NOT_READ = [
    *(("generate", f) for f in ("--threads", "--format", "--mode", "--histograms")),
    *(("rich", f) for f in ("--format", "--histograms")),
    *(("partition", f) for f in ("--threads", "--mode", "--histograms")),
    *(("dual", f) for f in ("--threads", "--format", "--mode", "--histograms")),
    *(("scan", f) for f in ("--kind", "--m", "--n", "--input", "--histograms")),
    *(("verify", f) for f in ("--threads", "--format", "--out", "--mode", "--kind", "--m", "--n",
                              "--input", "--coord-range", "--den-bound", "--z-levels", "--histograms")),
]


class TestFlagsPerCommand:
    @pytest.mark.parametrize("command, flag", NOT_READ, ids=[f"{c}{f}" for c, f in NOT_READ])
    def test_flag_not_read_is_rejected(self, tmp_path, command, flag):
        values = [str(tmp_path / v) if v.endswith(".json") else v for v in FLAG_ARGS[flag]]
        argv = [command, *BASE_ARGS[command], flag, *values]
        assert_one_line_exit(argv, cli.EXIT_USAGE)
        _, _, err = run(argv)
        assert err.startswith(f"incidencelab: error: unrecognized arguments: {flag}")

    def test_config_field_not_read_is_ignored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "pencil", "m": 1, "n": 3, "threads": 0, "t": 0}))
        code, out, _ = run(["generate", "--config", str(cfg)])
        assert code == cli.EXIT_OK
        assert len(json.loads(out)["curves"]) == 3
        assert_one_line_exit(["count", "--config", str(cfg)], cli.EXIT_USAGE)
        _, _, err = run(["rich", "--config", str(cfg), "--threads", "1"])
        assert err == "--t must be at least 1\n"


class TestGenerateAndCount:
    def test_generate_then_count_file(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        code, _, _ = run(["generate", "--kind", "pencil", "--m", "1", "--n", "9",
                          "--seed", "3", "--out", str(inst_path)])
        assert code == 0
        code, out, _ = run(["count", "--input", str(inst_path)])
        assert code == 0
        assert json.loads(out)["total"] == 9

    def test_count_csv(self):
        code, out, _ = run(["count", "--kind", "pencil", "--m", "1", "--n", "7",
                            "--format", "csv"])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "m,n,total,mode,seconds"
        assert row.split(",")[:4] == ["1", "7", "7", "exact"]

    def test_histograms_flag(self):
        code, out, _ = run(["count", "--kind", "pencil", "--m", "1", "--n", "4",
                            "--histograms"])
        payload = json.loads(out)
        assert payload["per_point"] == [4]

    def test_modes_match(self):
        _, out1, _ = run(["count", "--kind", "circle-sampled", "--m", "50", "--n", "10",
                          "--seed", "4", "--mode", "exact"])
        _, out2, _ = run(["count", "--kind", "circle-sampled", "--m", "50", "--n", "10",
                          "--seed", "4", "--mode", "prefilter"])
        assert json.loads(out1)["total"] == json.loads(out2)["total"]


class TestConfigPrecedence:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "pencil", "m": 1, "n": 6, "seed": 1}))
        code, out, _ = run(["count", "--config", str(cfg), "--n", "11"])
        assert code == 0
        assert json.loads(out)["total"] == 11

    def test_config_used_when_no_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "pencil", "m": 1, "n": 6, "seed": 1}))
        code, out, _ = run(["count", "--config", str(cfg)])
        assert json.loads(out)["total"] == 6

    def test_config_types_accepted(self, tmp_path):
        # an int in a float field, null in a path field, a flag's own choice
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "pencil", "m": 1, "n": 5, "epsilon": 1, "out": None,
                                   "mode": "prefilter", "format": "json", "histograms": True}))
        code, out, _ = run(["count", "--config", str(cfg)])
        assert code == cli.EXIT_OK
        assert json.loads(out)["total"] == 5

    def test_config_parse_error_reports_position(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"kind": "pencil",\n  broken\n}')
        code, _, err = run(["count", "--config", str(cfg)])
        assert code == cli.EXIT_USAGE
        assert "line 2" in err

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(["count", "--config", str(cfg)])
        assert code == cli.EXIT_USAGE
        assert "bogus" in err


class TestRich:
    def test_pencil_point_rich(self):
        code, out, _ = run(["rich", "--kind", "pencil", "--m", "1", "--n", "8", "--t", "2"])
        payload = json.loads(out)
        assert payload["count"] == 1


class TestPartitionCmd:
    def test_partition_json(self):
        code, out, _ = run(["partition", "--kind", "random-tangency", "--m", "64",
                            "--n", "0", "--seed", "9", "--levels", "2",
                            "--epsilon", "0.2"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["factors"]) == 2
        assert sum(payload["populations"].values()) + payload["zero_set_points"] == 64

    def test_partition_csv(self):
        code, out, _ = run(["partition", "--kind", "random-tangency", "--m", "32",
                            "--n", "0", "--seed", "9", "--levels", "1",
                            "--epsilon", "0.3", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "index,cell"


class TestDualCmd:
    def test_dual_emission(self):
        code, out, _ = run(["dual", "--kind", "pencil", "--m", "1", "--n", "3",
                            "--seed", "2", "--q", "2"])
        payload = json.loads(out)
        assert len(payload["dual_points"]) == 3
        assert len(payload["dual_lines"]) == 1
        assert "rich_planes" in payload


class TestScan:
    def test_pencil_exponent_near_one(self):
        code, out, _ = run(["scan", "--family", "pencil", "--base", "64",
                            "--steps", "5", "--seed", "3"])
        payload = json.loads(out)
        assert abs(payload["exponent"] - 1.0) <= 0.05

    def test_csv_columns(self):
        code, out, _ = run(["scan", "--family", "pencil", "--base", "16",
                            "--steps", "3", "--format", "csv"])
        assert out.splitlines()[0] == "family,m,n,total,bound_ratio,seconds"

    def test_reproducible_modulo_seconds(self):
        def strip(s):
            rows = [r.split(",") for r in s.strip().splitlines()[1:]]
            return [r[:-1] for r in rows]

        _, out1, _ = run(["scan", "--family", "circle-sampled", "--base", "32",
                          "--steps", "3", "--seed", "8", "--format", "csv"])
        _, out2, _ = run(["scan", "--family", "circle-sampled", "--base", "32",
                          "--steps", "3", "--seed", "8", "--format", "csv"])
        assert strip(out1) == strip(out2)


class TestVerifyCmd:
    def test_quick_suite_passes(self):
        code, out, _ = run(["verify", "--quick", "--seed", "11"])
        assert code == cli.EXIT_OK
        assert "[FAIL]" not in out
        assert out.count("[PASS]") == len(__import__("incidencelab.verify", fromlist=["CHECKS"]).CHECKS)
