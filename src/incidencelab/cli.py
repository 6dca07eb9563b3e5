"""Command-line orchestration: generate, count, rich, partition, dual, scan,
verify.

Configuration is a single JSON document; command-line flags override config
fields (defaults < config < flags).  Each subcommand takes a flag only for
the fields it reads (the OPTIONS table).  All outputs are deterministic given the
seed, except the wall-clock seconds fields, which golden comparisons must
ignore.  Exit codes: 0 ok (also when the reader closes the pipe early; verify
then runs its remaining checks silently), 1 usage, 2 verification failure,
3 infeasible spec.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from .dual3 import circle_dual, rich_planes, rich_planes_to_json
from .engine import CSV_HEADER, bound_ratio, count, exponent_fit, t_rich_points
from .exact import Vec3
from .generators import KINDS, GenSpec, InfeasibleSpecError, Instance, certify, gen, st_grid_k
from .partition import PartitionError, build_partition, classify
from .verify import run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INFEASIBLE = 3


class UsageError(Exception):
    """Bad input or option value; main reports it in one line and exits 1."""


SCAN_FAMILIES = ("pencil", "st-grid", "random-tangency", "circle-sampled", "anchored-planted")
INSTANCE = ("generate", "count", "rich", "partition", "dual")  # build or load one instance
GENERATOR = INSTANCE + ("scan",)  # may draw instances; write a report


@dataclass(frozen=True)
class Option:
    """A config field: its default, its choices or least value, and the
    subcommands that read it, which alone take it as a flag."""

    default: Any
    commands: Tuple[str, ...]
    choices: Tuple[str, ...] = ()
    least: Optional[int] = None


OPTIONS = {
    "kind": Option("random-tangency", INSTANCE, choices=KINDS),
    "m": Option(100, INSTANCE),
    "n": Option(100, INSTANCE),
    "input": Option(None, INSTANCE),
    "seed": Option(0, GENERATOR + ("verify",)),
    "coord_range": Option(100, GENERATOR),
    "den_bound": Option(100, GENERATOR),
    "z_levels": Option(1, GENERATOR),
    "out": Option(None, GENERATOR),
    "mode": Option("exact", ("count", "rich", "scan"), choices=("exact", "prefilter")),
    "threads": Option(1, ("count", "rich", "scan"), least=1),
    "format": Option("json", ("count", "partition", "scan"), choices=("json", "csv")),
    "histograms": Option(False, ("count",)),
    "t": Option(2, ("rich",), least=1),
    "q": Option(2, ("dual",)),
    "levels": Option(2, ("partition",)),
    "epsilon": Option(0.1, ("partition",)),
    "family": Option("pencil", ("scan",), choices=SCAN_FAMILIES),
    "base": Option(64, ("scan",), least=1),
    "steps": Option(4, ("scan",), least=1),
    "quick": Option(False, ("verify",)),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, stdout, **kwargs):
        super().__init__(*args, **kwargs)
        self.stdout = stdout

    def print_help(self, file=None):  # --help writes to main's stdout, not sys.stdout
        super().print_help(file if file is not None else self.stdout)

    def error(self, message):  # argparse would print a usage block and exit 2
        raise UsageError(f"{self.prog}: error: {message}")


def _build_parser(stdout) -> argparse.ArgumentParser:
    parser = _Parser(prog="incidencelab", stdout=stdout)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False, stdout=stdout)  # scan --m must not read as --mode
        p.add_argument("--config")
        for key, opt in OPTIONS.items():
            if name not in opt.commands:
                continue
            if isinstance(opt.default, bool):
                p.add_argument(_flag(key), dest=key, action="store_true", default=None)
            else:
                p.add_argument(_flag(key), dest=key, default=None, choices=opt.choices or None,
                               type=str if opt.default is None else type(opt.default))
    return parser


def _config_error(key: str, val) -> Optional[str]:
    """Why a config value does not fit its field (the type of its default,
    a float field also taking an int; the field's choices), or None."""
    default, choices = OPTIONS[key].default, OPTIONS[key].choices
    if default is None:  # out, input: a path or null
        ok, want = val is None or isinstance(val, str), "a string or null"
    elif isinstance(default, float):
        ok, want = isinstance(val, (int, float)) and not isinstance(val, bool), "a number"
    else:
        ok, want = type(val) is type(default), type(default).__name__
    if ok and choices and val not in choices:
        ok, want = False, f"one of {', '.join(choices)}"
    return None if ok else f"expected {want}, got {json.dumps(val)}"


def _merge_config(args: argparse.Namespace) -> dict:
    """Defaults < config document < flags.  Every config field is type-checked;
    least values are enforced on the fields this subcommand reads."""
    cfg = {key: opt.default for key, opt in OPTIONS.items()}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
        except RecursionError:
            raise UsageError("config parse error: nested too deeply") from None
        except ValueError as exc:  # an integer literal past Python's digit limit, or not UTF-8
            raise UsageError(f"config parse error: {exc}") from None
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError("config must be a JSON object")
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        for key, val in loaded.items():
            problem = _config_error(key, val)
            if problem:
                raise UsageError(f"invalid config field {key}: {problem}")
        cfg.update(loaded)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key, opt in OPTIONS.items():
        if opt.least is not None and args.command in opt.commands and cfg[key] < opt.least:
            raise UsageError(f"{_flag(key)} must be at least {opt.least}")
    return cfg


def _genspec(cfg: dict) -> GenSpec:
    return GenSpec(
        kind=cfg["kind"], m=cfg["m"], n=cfg["n"], seed=cfg["seed"],
        coord_range=cfg["coord_range"], den_bound=cfg["den_bound"], z_levels=cfg["z_levels"],
    )


def _load_instance(cfg: dict) -> Tuple[Instance, int]:
    if not cfg["input"]:
        return gen(_genspec(cfg))
    try:
        with open(cfg["input"]) as fh:
            inst = Instance.from_json(json.load(fh))
        return inst, certify(inst)
    except (KeyError, TypeError, ValueError, ArithmeticError, RecursionError) as exc:
        raise UsageError(f"invalid input {cfg['input']}: {type(exc).__name__}: {exc}") from None


def _emit(text: str, cfg: dict, stdout) -> None:
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text, file=stdout)


def _points_for_partition(inst: Instance) -> List[Vec3]:
    if inst.kind == "tangency":
        return [Vec3(p.p.x, p.p.y, p.u) for p in inst.points]
    return list(inst.points)


def cmd_generate(cfg, stdout) -> int:
    inst, planted = _load_instance(cfg)
    _emit(json.dumps(inst.to_json(), indent=2), cfg, stdout)
    return EXIT_OK


def cmd_count(cfg, stdout) -> int:
    inst, _ = _load_instance(cfg)
    report = count(inst.points, inst.curves, mode=cfg["mode"], threads=cfg["threads"])
    if cfg["format"] == "csv":
        _emit(CSV_HEADER + "\n" + report.csv_row(), cfg, stdout)
    else:
        _emit(json.dumps(report.to_json(histograms=bool(cfg["histograms"])), indent=2), cfg, stdout)
    return EXIT_OK


def cmd_rich(cfg, stdout) -> int:
    inst, _ = _load_instance(cfg)
    rich = t_rich_points(inst.points, inst.curves, cfg["t"],
                         mode=cfg["mode"], threads=cfg["threads"])
    payload = {
        "t": cfg["t"],
        "count": len(rich),
        "points": [p.to_json() for p in rich],
    }
    _emit(json.dumps(payload, indent=2), cfg, stdout)
    return EXIT_OK


def cmd_partition(cfg, stdout) -> int:
    inst, _ = _load_instance(cfg)
    points = _points_for_partition(inst)
    pp = build_partition(points, cfg["levels"], cfg["epsilon"], seed=cfg["seed"])
    assignment = classify(points, pp)
    if cfg["format"] == "csv":
        _emit("\n".join(assignment.csv_rows()), cfg, stdout)
    else:
        payload = pp.to_json()
        payload["populations"] = {
            "".join("+" if s > 0 else "-" for s in key): v
            for key, v in sorted(assignment.populations.items())
        }
        payload["zero_set_points"] = sum(assignment.on_zero_set)
        _emit(json.dumps(payload, indent=2), cfg, stdout)
    return EXIT_OK


def cmd_dual(cfg, stdout) -> int:
    inst, _ = _load_instance(cfg)
    if inst.kind != "tangency":
        raise UsageError("dual expects a tangency instance")
    payload = {
        "dual_points": [circle_dual(c).to_json() for c in inst.curves],
        "dual_lines": [p.to_json() for p in inst.points],  # a dual line is its directed point's {p, u}
    }
    if cfg["q"] >= 2:
        payload["rich_planes"] = rich_planes_to_json(rich_planes(inst.points, cfg["q"]))
    _emit(json.dumps(payload, indent=2), cfg, stdout)
    return EXIT_OK


def _scan_sizes(family: str, base: int, steps: int, z_levels: int) -> List[Tuple[int, int]]:
    """The (m, n) of each step, in order; an st-grid size that rounds to an
    earlier step's grid is dropped, so no instance is counted twice."""
    sizes = []
    for i in range(steps):
        target = base * (2 ** i)
        if family == "pencil":
            size = (1, target)
        elif family == "st-grid":
            actual = 2 * st_grid_k(target, z_levels) ** 3 * z_levels
            size = (actual, actual)
        else:
            size = (target, target)
        if size not in sizes:
            sizes.append(size)
    return sizes


def cmd_scan(cfg, stdout) -> int:
    family = cfg["family"]
    kind = {"st-grid": "st-grid-horizontal-lines"}.get(family, family)
    _genspec(dict(cfg, kind=kind, m=0, n=0))  # rejects bad ranges and z-levels up front
    rows = []
    for m, n in _scan_sizes(family, cfg["base"], cfg["steps"], cfg["z_levels"]):
        inst, _ = gen(_genspec(dict(cfg, kind=kind, m=m, n=n)))
        report = count(inst.points, inst.curves, mode=cfg["mode"], threads=cfg["threads"])
        rows.append({"m": report.m, "n": report.n, "total": report.total,
                     "bound_ratio": bound_ratio(report), "seconds": report.seconds})
    if cfg["format"] == "csv":
        text = "\n".join(["family,m,n,total,bound_ratio,seconds"] + [
            f"{family},{r['m']},{r['n']},{r['total']},{r['bound_ratio']:.6f},{r['seconds']:.6f}" for r in rows])
    else:
        result = {"family": family, "rows": rows}
        try:  # fewer than three rows with a positive total
            result["exponent"] = exponent_fit([(r["m"], r["n"], r["total"]) for r in rows])[0]
        except ValueError:
            pass
        text = json.dumps(result, indent=2)
    _emit(text, cfg, stdout)
    return EXIT_OK


def cmd_verify(cfg, stdout) -> int:
    reading = True

    def log(msg: str) -> None:  # once the reader is gone, the suite still runs to its exit code
        nonlocal reading
        if reading:
            try:
                print(msg, file=stdout)
            except BrokenPipeError:
                reading = False

    ok = run_suite(quick=bool(cfg["quick"]), seed=cfg["seed"], log=log)
    return EXIT_OK if ok else EXIT_VERIFY


COMMANDS = {
    "generate": cmd_generate,
    "count": cmd_count,
    "rich": cmd_rich,
    "partition": cmd_partition,
    "dual": cmd_dual,
    "scan": cmd_scan,
    "verify": cmd_verify,
}


def main(argv: Optional[List[str]] = None, stdout=None, stderr=None) -> int:
    """Run one subcommand.  Commands fail only by raising; this is the one
    place that turns an error into its exit code and one line on stderr."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser(stdout).parse_args(argv)
        return COMMANDS[args.command](_merge_config(args), stdout)
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    except BrokenPipeError:  # the reader stopped early (| head): not an error of ours
        return EXIT_OK
    except UsageError as exc:
        message, code = str(exc), EXIT_USAGE
    except OSError as exc:  # unreadable input, unwritable output
        message = f"cannot access {exc.filename}: {exc.strerror}" if exc.filename else f"file error: {exc}"
        code = EXIT_USAGE
    except InfeasibleSpecError as exc:
        message, code = f"infeasible spec: {exc}", EXIT_INFEASIBLE
    except PartitionError as exc:
        message, code = f"partition failed: {exc}", EXIT_INFEASIBLE
    print(message, file=stderr)
    return code


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # as in main; the rest would fail the exit flush with "Exception ignored"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
