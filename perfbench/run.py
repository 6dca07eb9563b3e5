"""incidencelab benchmark: seeded workloads run as a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload partition --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One job is in flight at a time, and the next starts when the previous one
and its correctness gate are done.  A run makes at least two jobs, and then
starts a job only if a typical job and its gate end within ``--seconds``.
Each job is timed in wall seconds and in reference seconds (``pace.py``).  With
``--trace 0`` the run reports end-to-end metrics; with ``--trace 1`` jobs
alternate untraced and traced on the same input, and the run reports
per-layer metrics from the spans.  ``--workload all`` runs every workload,
each in its own process so that peak memory is per workload.  The last line
of standard output is one JSON object; a full record of the run is written
under ``perfbench/out/``.  See ``perfbench/README.md`` for the metrics.
"""

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from pace import REFERENCE_TICK_S, PaceClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples a tail percentile must leave above it
ORDER = ("count-sparse", "count-dense", "partition", "rich-planes")


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it, and its rank."""
    xs = sorted(samples)
    i = len(xs) - TAIL_BEYOND - 1
    if i < 0:
        return None, None
    return xs[i], 100.0 * (i + 1) / len(xs)


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports numpy and the program."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; "
            "from incidencelab import anchored, dual3, engine, generators, partition, polynomials, tangency")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def machine() -> dict:
    import numpy
    from workloads import nproc

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "incidencelab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class CountBook:
    """Exact counts per input, kept across runs of the same program source.

    A count that differs from an earlier run on the same input is a failure.
    """

    def __init__(self, path: Path, prefix: str):
        self.path, self.prefix = path, prefix
        try:
            with open(path) as fh:
                self.book = json.load(fh)
        except (OSError, ValueError):
            self.book = {}

    def check(self, index: int, counts: dict) -> list:
        key = f"{self.prefix}/{index}"
        seen = self.book.setdefault(key, counts)
        if seen != counts:
            return [f"exact counts of input {index} changed: {seen} then {counts}"]
        return []

    def save(self) -> None:
        with open(self.path, "w") as fh:
            json.dump(self.book, fh, indent=1, sort_keys=True)


def run_job(wl, inp, index, k, traced, tracer, book) -> dict:
    rec = {"job": k, "input": index, "traced": traced, "problems": []}
    tracer.enabled, tracer.job = traced, k
    try:
        with PaceClock() as clock, tracer.span("job"):
            out = wl.job(inp, tracer)
        rec["job_s"] = clock.wall_s - clock.tick_s
        rec["job_ref_s"] = clock.ref_s
        rec["ticks"] = len(clock.ticks)
        with tracer.span("check"):
            rec["problems"] += wl.check(inp, out, tracer)
        rec["counts"] = wl.counts(inp, out)
        rec["layer"] = wl.layer(inp, out)
        rec["problems"] += book.check(index, rec["counts"])
        if "latencies" in out:
            rec["crossing_s"] = out["latencies"]
    except Exception as exc:  # the loop keeps running; the job counts as failed
        traceback.print_exc(file=sys.stderr)
        rec["problems"].append(f"{type(exc).__name__}: {exc}")
    finally:
        tracer.enabled = False
    for problem in rec["problems"]:
        print(f"perfbench: job {k} failed: {problem}", file=sys.stderr)
    return rec


def end_to_end(setup_s, jobs) -> dict:
    done = [j["job_s"] for j in jobs if "job_s" in j]
    failed = sum(1 for j in jobs if j["problems"])
    out = {
        "setup_s": (setup_s, "s", f"median import + median of {SETUP_REPEATS} set-up passes"),
        "job_s": (statistics.median(done), "s", f"median wall time of {len(done)} jobs"),
        "job_ref_s": (statistics.median(j["job_ref_s"] for j in jobs if "job_ref_s" in j), "s",
                      f"median of the same jobs in reference seconds ({REFERENCE_TICK_S * 1e3:g} ms pace ticks)"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "peak resident set"),
        "failed_ratio": (failed / len(jobs), "fraction", f"{failed} of {len(jobs)} jobs failed"),
    }
    latencies = [x for j in jobs for x in j.get("crossing_s", [])]
    if latencies:
        out["crossing_s"] = (statistics.median(latencies), "s", f"median of {len(latencies)} curve_crossings calls")
        value, rank = tail(latencies)
        if value is not None:
            out["crossing_tail_s"] = (value, "s", f"p{rank:.1f} of {len(latencies)} calls, {TAIL_BEYOND} beyond it")
    return out


def per_layer(tracer, jobs) -> dict:
    from workloads import nproc

    def ratio(a, b):
        return a / b if a and b else 0.0

    med = tracer.median_per_job
    out = {
        "generators.gen_s": tracer.median_call("generators.gen"),
        "generators.gen_s.lines3": tracer.median_call("generators.gen", kind="lines3"),
        "generators.gen_s.anchored": tracer.median_call("generators.gen", kind="anchored"),
        "engine.count_s.prefilter": med("engine.count", mode="prefilter"),
        "engine.count_s.exact": med("engine.count", mode="exact"),
        "engine.prefilter_gain": ratio(med("engine.count", mode="exact", kind="anchored"),
                                       med("engine.count", mode="prefilter", kind="anchored")),
        "engine.thread_speedup": ratio(med("engine.count", mode="prefilter", kind="tangency"),
                                       med("engine.count", root="check", threads=nproc())),
        "partition.build_s": med("partition.build_partition"),
        "partition.classify_s": med("partition.classify"),
        "partition.crossings_s": med("partition.curve_crossings"),
        "polynomials.restrict_s": med("polynomials.restrict_to_curve", root="check"),
        "polynomials.sturm_s": med("polynomials.sturm_count", root="check"),
        "dual3.rich_planes_s": med("dual3.rich_planes"),
        "anchored.lifted_param_s": med("anchored.lifted_param", root="setup"),
        "tangency.inputs_s": med("tangency.inputs", root="setup"),
    }
    traced = [j for j in jobs if j["traced"] and "job_s" in j]
    plain = [j for j in jobs if not j["traced"] and "job_s" in j]
    if traced and plain:
        out["trace.overhead_s"] = (statistics.median(j["job_ref_s"] for j in traced)
                                   - statistics.median(j["job_ref_s"] for j in plain))
    if traced:
        out.update(traced[0]["counts"])
        out.update(traced[0]["layer"])
    return out


def run_one(args) -> int:
    if not (SRC / "incidencelab" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import incidencelab

    if Path(incidencelab.__file__).resolve().parent != (SRC / "incidencelab").resolve():
        print(f"perfbench: imported incidencelab from {incidencelab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    import_s = import_seconds()
    wl = WORKLOADS[args.workload]()
    tracer = Tracer()
    setup_passes = []
    for r in range(SETUP_REPEATS):
        start = time.perf_counter()
        tracer.enabled, tracer.job = bool(args.trace), f"setup{r}"
        with tracer.span("setup"):
            inputs = wl.inputs(args.seed, tracer)
        tracer.enabled = False
        wl.warm_up()
        setup_passes.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_passes)

    OUT.mkdir(exist_ok=True)
    digest = source_digest()
    book = CountBook(OUT / "counts.json", f"{digest}/{args.workload}/{args.seed}")
    jobs, spent = [], []
    begin = time.perf_counter()
    # At least two jobs; after that, a job starts only if a typical job and
    # its gate still end within --seconds.
    while len(jobs) < 2 or time.perf_counter() - begin + statistics.median(spent) <= args.seconds:
        k = len(jobs)
        pair = k // 2  # traced runs: one untraced and one traced job per input, in alternating order
        index = (pair if args.trace else k) % wl.pool
        traced = bool(args.trace) and (k % 2 == 1) != (pair % 2 == 1)
        gc.collect()  # garbage of the previous job is not charged to this one
        start = time.perf_counter()
        jobs.append(run_job(wl, inputs[index], index, k, traced, tracer, book))
        spent.append(time.perf_counter() - start)
    book.save()

    if not any("job_s" in j for j in jobs):
        print("perfbench: no job completed", file=sys.stderr)
        return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = per_layer(tracer, jobs)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        shown = {name: (value, units.get(name) or ("s" if "_s" in name else "1"), "")
                 for name, value in values.items()}
        wanted = bench["per_layer"]
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    else:
        shown = end_to_end(setup_s, jobs)
        values = {name: v[0] for name, v in shown.items()}
        wanted = bench["end_to_end"]
    failed = sum(1 for j in jobs if j["problems"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, one job in flight", "machine": machine(), "source": digest,
        "sizes": wl.sizes(), "import_s": import_s, "setup_passes_s": setup_passes,
        "metrics": values, "self_s": tracer.self_times(),
        "counts": {str(j["input"]): j["counts"] for j in jobs if "counts" in j},
        "jobs": jobs,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"{args.workload}  seed {args.seed}  {len(jobs)} jobs in {args.seconds} s  "
          f"({'traced' if args.trace else 'untraced'}; record {path.relative_to(ROOT)})")
    for name, (value, unit, note) in shown.items():
        print(f"  {name:<28} {value:<14.6g} {unit:<9} {note}")
    for name, counts in record["counts"].items():
        print(f"  counts of input {name}: {counts}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(jobs), "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a child process."""
    attempted = failed = 0
    metrics = {}
    status = 0
    for name in ORDER:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            status = proc.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if status:
        return status
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + ORDER)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
