import copy
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from incidencelab import cli, verify


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_usage_error(self):
        assert_one_line_exit(["count", "--mode", "warp"], cli.EXIT_USAGE)
        assert_one_line_exit(["count", "--kind", "bogus"], cli.EXIT_USAGE)

    def test_unknown_command(self):
        assert_one_line_exit(["frobnicate"], cli.EXIT_USAGE)

    def test_help(self, capsys):
        code, out, err = run(["count", "--help"])
        assert (code, err) == (cli.EXIT_OK, "")
        assert "--histograms" in out
        assert capsys.readouterr().out == ""

    def test_python_m_help(self):
        proc = subprocess.run([sys.executable, "-m", "incidencelab", "--help"], env=_module_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: incidencelab")

    @pytest.mark.parametrize("m, n, read", [(400, 200, 100), (4, 2, 0)], ids=["in-main", "at-exit-flush"])
    def test_reader_closing_the_pipe_early_is_not_an_error(self, m, n, read):
        # | head -c 100: the ~230 kB document overfills the pipe, so main's own
        # write fails; the small one still sits in stdout's buffer at exit
        env = _module_env()
        env.pop("PYTHONUNBUFFERED", None)
        argv = [sys.executable, "-m", "incidencelab", "generate", "--kind", "anchored-planted",
                "--m", str(m), "--n", str(n)]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            head = proc.stdout.read(read)
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert len(head) == read
        assert (code, err) == (cli.EXIT_OK, "")

    def test_infeasible_spec(self):
        code, _, err = run(["count", "--kind", "pencil", "--m", "3", "--n", "5"])
        assert code == cli.EXIT_INFEASIBLE
        assert "infeasible" in err

    def test_ok(self):
        code, _, _ = run(["count", "--kind", "pencil", "--m", "1", "--n", "5"])
        assert code == cli.EXIT_OK


def _module_env():
    """The environment for ``python -m incidencelab``, with this source tree first on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


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
        {"kind": "anchored", "points": [["1", "0"]], "curves": [], "planted_pairs": []},
        {"kind": "tangency", "points": [{"p": ["1"], "u": "0"}], "curves": []},
    ], ids=["negative-r2", "missing-key", "unknown-kind", "short-vec3", "short-vec2"])
    def test_invalid_instance_objects(self, tmp_path, obj):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(obj))
        assert_one_line_exit(["count", "--input", str(path)], cli.EXIT_USAGE)

    @pytest.mark.parametrize("edit", ["pair-out-of-range", "r2-edited"])
    def test_planted_pairs_rechecked(self, tmp_path, edit):
        path = tmp_path / "inst.json"
        assert run(["generate", "--kind", "pencil", "--m", "1", "--n", "3", "--out", str(path)])[0] == cli.EXIT_OK
        obj = json.loads(path.read_text())
        if edit == "pair-out-of-range":
            obj["planted_pairs"][2], pair = [5, 7], "(5, 7)"
        else:
            obj["curves"][1]["r2"], pair = "1", "(0, 1)"
        path.write_text(json.dumps(obj))
        code, out, err = run(["generate", "--input", str(path)])
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.startswith(f"invalid input {path}: ValueError: planted pair {pair} ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("edit, message", [
        ({"planted_pairs": [[0, 0], [0, 0], [0, 1]], "planted": 3}, "ValueError: planted pair (0, 0) is listed twice"),
        ({"planted_pairs": [[False, True]], "planted": 1},
         "ValueError: planted pair (False, True) is not two integers"),
        ({"planted": 7}, "ValueError: planted is 7 but 3 planted pairs are listed"),
        ({"planted": "3"}, "ValueError: planted is '3' but 3 planted pairs are listed"),
    ], ids=["duplicate-pair", "bool-indices", "planted-mismatch", "planted-string"])
    def test_planted_field_and_pairs_validated(self, tmp_path, edit, message):
        path = tmp_path / "inst.json"
        assert run(["generate", "--kind", "pencil", "--m", "1", "--n", "3", "--out", str(path)])[0] == cli.EXIT_OK
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        for command in ("generate", "count"):
            code, out, err = run([command, "--input", str(path)])
            assert (code, out) == (cli.EXIT_USAGE, "")
            assert err == f"invalid input {path}: {message}\n"

    @pytest.mark.parametrize("flag", ["--input", "--config"])
    def test_deep_nesting(self, tmp_path, flag):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert_one_line_exit(["count", flag, str(path)], cli.EXIT_USAGE)

    @pytest.mark.parametrize("command", ["count", "generate", "dual", "partition"])
    def test_infinite_coordinate(self, tmp_path, command):
        path = tmp_path / "inst.json"
        assert run(["generate", "--kind", "pencil", "--m", "1", "--n", "3", "--out", str(path)])[0] == cli.EXIT_OK
        obj = json.loads(path.read_text())
        obj["points"][0]["p"][0] = math.inf
        path.write_text(json.dumps(obj))  # writes the literal Infinity
        code, out, err = run([command, "--input", str(path)])
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == f"invalid input {path}: OverflowError: cannot convert Infinity to integer ratio\n"

    def test_rich_threshold_zero(self):
        assert_one_line_exit(["rich", "--kind", "pencil", "--m", "1", "--n", "3", "--t", "0"],
                             cli.EXIT_USAGE)

    def test_partition_too_few_points(self):
        assert_one_line_exit(["partition", "--kind", "random-tangency", "--m", "3", "--n", "0",
                              "--levels", "2"], cli.EXIT_INFEASIBLE)

    def test_partition_lift_overflows_a_float(self, tmp_path):
        # levels 1 and 2 lift to degree 1; level 3 needs x^2, about 10^600
        rng = random.Random(1)
        points = [{"p": [str(rng.randint(1, 9) * 10 ** 300), str(rng.randint(-50, 50))],
                   "u": str(rng.randint(-50, 50))} for _ in range(16)]
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"kind": "tangency", "points": points, "curves": []}))
        code, out, err = run(["partition", "--input", str(path), "--levels", "3"])
        assert (code, out) == (cli.EXIT_INFEASIBLE, "")
        assert err == "partition failed: coordinates too large for the float search\n"

    @pytest.mark.parametrize("command, fields", [
        ("count", {"threads": "2"}),
        ("count", {"m": "5"}),
        ("partition", {"levels": "2"}),
        ("count", {"mode": "fast"}),
        ("count", {"format": "xml"}),
        ("count", {"kind": "bogus"}),
        ("count", {"m": True}),
        ("count", {"out": 3}),
    ], ids=["threads-str", "m-str", "levels-str", "mode-choice", "format-choice", "kind-choice", "m-bool", "out-int"])
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
# Every field with choices, on every subcommand that takes it.
CHOICE_FIELDS = [(c, key) for key, opt in cli.OPTIONS.items() if opt.choices for c in opt.commands]


class TestFlagsPerCommand:
    @pytest.mark.parametrize("command, flag", NOT_READ, ids=[f"{c}{f}" for c, f in NOT_READ])
    def test_flag_not_read_is_rejected(self, tmp_path, command, flag):
        values = [str(tmp_path / v) if v.endswith(".json") else v for v in FLAG_ARGS[flag]]
        argv = [command, *BASE_ARGS[command], flag, *values]
        assert_one_line_exit(argv, cli.EXIT_USAGE)
        _, _, err = run(argv)
        assert err.startswith(f"incidencelab: error: unrecognized arguments: {flag}")

    @pytest.mark.parametrize("command, key", CHOICE_FIELDS, ids=[f"{c}-{k}" for c, k in CHOICE_FIELDS])
    def test_bad_choice_is_a_usage_error(self, tmp_path, command, key):
        flag_argv = [command, cli._flag(key), "bogus"]
        assert_one_line_exit(flag_argv, cli.EXIT_USAGE)
        assert "invalid choice: 'bogus'" in run(flag_argv)[2]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "bogus"}))
        assert_one_line_exit([command, "--config", str(cfg)], cli.EXIT_USAGE)
        assert run([command, "--config", str(cfg)])[2].startswith(f"invalid config field {key}: ")

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

    @pytest.mark.parametrize("text", [b'{"m": 1' + b"0" * 5000 + b"}", b'{"m": 1\xff}'],
                             ids=["past-the-digit-limit", "not-utf-8"])
    def test_config_json_cannot_read(self, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        code, out, err = run(["count", "--config", str(cfg)])
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.startswith("config parse error: ")
        assert len(err.splitlines()) == 1

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

    def test_dual_payload_golden(self):
        code, out, _ = run(["dual", "--kind", "circle-sampled", "--m", "20", "--n", "5", "--q", "2"])
        assert code == cli.EXIT_OK
        assert len(json.loads(out)["rich_planes"]) == 30
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f25da7d9f136ee2fc17bb5dc0ccdba59b9900b0c5e9b16432773774e0ac65aca")

    def test_anchored_instance_rejected(self):
        code, out, err = run(["dual", "--kind", "anchored-planted", "--m", "4", "--n", "2"])
        assert (code, out, err) == (cli.EXIT_USAGE, "", "dual expects a tangency instance\n")


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

    def test_sizes_that_do_not_vary_have_no_exponent(self):
        # base 1 rounds every step up to the smallest grid, k = 2, counted once
        code, out, _ = run(["scan", "--family", "st-grid", "--base", "1", "--steps", "3"])
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert list(payload) == ["family", "rows"]
        assert [(r["m"], r["n"]) for r in payload["rows"]] == [(16, 16)]

    def test_st_grid_sizes_that_round_alike_are_counted_once(self):
        # targets 16, 32, 64, 128 round to the grids k = 2, 3, 3, 4
        code, out, _ = run(["scan", "--family", "st-grid", "--base", "16", "--steps", "4"])
        assert code == cli.EXIT_OK
        assert [r["m"] for r in json.loads(out)["rows"]] == [16, 54, 128]

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
        assert out.count("[PASS]") == len(verify.CHECKS)

    def test_reader_closing_the_pipe_early_still_reports_a_later_failure(self, monkeypatch):
        # verify | head -1 on an unbuffered stdout: the second line's write
        # fails, and a check that fails after that must still set exit 2
        ran = []

        def passing(rng, scale):
            ran.append("pass")
            return "ok"

        def failing(rng, scale):
            ran.append("fail")
            raise verify.CheckFailed("planted failure")

        monkeypatch.setattr(verify, "CHECKS", {"first": passing, "second": passing, "last": failing})

        class ClosingPipe(io.StringIO):
            writes = 0

            def write(self, s):  # print writes the message, then the newline
                self.writes += 1
                if self.writes >= 3:
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(s)

        out, err = ClosingPipe(), io.StringIO()
        code = cli.main(["verify", "--quick"], stdout=out, stderr=err)
        assert (code, err.getvalue()) == (cli.EXIT_VERIFY, "")
        assert out.getvalue().startswith("[PASS] first: ok") and out.getvalue().count("\n") == 1
        assert ran == ["pass", "pass", "fail"]


# The grammar fuzzer: each example replaces one value of a valid instance or
# config document and runs main in-process on the result.
RAW = "raw JSON text"  # a marker: _dump puts the mutation's raw text in its place
MUTATIONS = {
    "wrong-type": lambda v: {dict: [], list: {}, str: 7.5}.get(type(v), "7"),
    "bool": lambda v: True,
    "null": lambda v: None,
    "deep": lambda v: (RAW, "[" * 10_000 + "]" * 10_000),
    "duplicate": lambda v: v + v[:1] if isinstance(v, list) else [v, v],
    "Infinity": lambda v: math.inf,
    "NaN": lambda v: math.nan,
    "inf": lambda v: "inf",
    "nan": lambda v: "nan",
    "5000-digits": lambda v: (RAW, "1" * 5000),  # past Python's 4,300-digit int limit
    "1e400": lambda v: "1e400",
    "empty": lambda v: [],
}
FUZZ_KINDS = [["--kind", kind, "--m", "4", "--n", "2"]
              for kind in ("random-tangency", "circle-sampled", "anchored-random", "anchored-planted")]
FUZZ_KINDS.append(["--kind", "st-grid-horizontal-lines", "--m", "16", "--n", "16"])
# Every config field but the two paths (a mutated --out would write a file).
FUZZ_CONFIG = {**{key: opt.default for key, opt in cli.OPTIONS.items() if opt.default is not None},
               "kind": "circle-sampled", "m": 4, "n": 2, "levels": 1, "epsilon": 0.5}
FUZZ_RUNS = [["count"], ["generate"], ["dual"], ["partition", "--levels", "1"]]


def _paths(doc, path=()):
    """The path of every value inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, val in items:
        yield path + (key,)
        yield from _paths(val, path + (key,))


def _dump(doc, path, mutation) -> str:
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    new = MUTATIONS[mutation](parent[path[-1]])
    raw = new[1] if isinstance(new, tuple) else None
    parent[path[-1]] = RAW if raw else new
    text = json.dumps(doc)  # NaN and infinities as the literals NaN, Infinity
    return text.replace(json.dumps(RAW), raw) if raw else text


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def fuzz_instances():
    return [json.loads(run(["generate", *flags])[1]) for flags in FUZZ_KINDS]


def assert_contract(argv):
    code, out, err = run(argv)  # an exception escaping main fails the test here
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_INFEASIBLE), (argv, code, err)
    if code != cli.EXIT_OK:
        assert (out, len(err.splitlines()), err.endswith("\n")) == ("", 1, True), (argv, err)
        return
    assert err == ""
    if argv[0] == "generate":
        inst = json.loads(out)
        assert inst["planted"] == len({tuple(p) for p in inst["planted_pairs"]})


class TestGrammarFuzzer:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None, phases=(Phase.generate,))
    @given(data=st.data(), mutation=st.sampled_from(sorted(MUTATIONS)))
    def test_one_mutated_instance_field(self, fuzz_dir, fuzz_instances, data, mutation):
        doc = data.draw(st.sampled_from(fuzz_instances))
        path = data.draw(st.sampled_from(list(_paths(doc))))
        inst = fuzz_dir / "inst.json"
        inst.write_text(_dump(doc, path, mutation))
        for argv in FUZZ_RUNS:
            assert_contract([*argv, "--input", str(inst)])

    @settings(max_examples=90, derandomize=True, database=None, deadline=None, phases=(Phase.generate,))
    @given(key=st.sampled_from(sorted(FUZZ_CONFIG)), mutation=st.sampled_from(sorted(MUTATIONS)))
    def test_one_mutated_config_field(self, fuzz_dir, key, mutation):
        cfg = fuzz_dir / "cfg.json"
        cfg.write_text(_dump(FUZZ_CONFIG, (key,), mutation))
        for argv in FUZZ_RUNS:
            assert_contract([*argv, "--config", str(cfg)])
