"""wignerkit benchmark: the commands people run, timed end to end, and a
separate traced run that times each of the seven modules from outside.

Run from the repository root:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Workloads are closed loops: one client, one op at a time, BLAS pinned to one
thread.  Every op is a `wignerkit.cli.main(argv)` call in one long-lived worker
interpreter (cli_worker.py), which empties the coefficient caches before each
op so that it starts as cold as a fresh invocation.
  verify-all  passes of the verify suites at --max-l-x2 6, one suite per op
              (routes, unitarity, homomorphism, schur, character, jacobi-orth),
              plus `verify --suite all --max-l-x2 0` for the spin-free suites
              and identity checks; shuffled within each pass, seeds drawn
              from the workload seed
  haar-grid   `verify --suite schur --max-l-x2 6` per op
  dmat-mix    `dmat --l-x2 L --route auto` with L log-uniform on [8, 200] and
              Haar-random angles

A run does a fixed number of ops, sized from --seconds by the op time at the
commit that defined the benchmark, so every commit does the same work and
wall_s compares like with like.  Latency percentiles are linear
interpolations over every op, failed ones included.  setup_s, the time for a
fresh interpreter to import wignerkit.cli, is sampled between ops all through
the run and reported as a median.

On the shared 2-core x86-64 virtual machine the benchmark was defined on, the
host's speed changes by up to a factor of two for seconds to minutes at a
time.  So every timing is scaled to a nominal host speed.  Before each op the
worker times a few runs of a reference load, a fixed piece of work outside
wignerkit (see cli_worker.py).  An op's time is multiplied by REF_NOMINAL_S
over the median of the probes taken just before and just after it; a setup
sample by the same ratio for the probes taken next to it.  The unscaled
times are in the run record.

The last stdout line is {"correct", "attempted", "failed", "metrics"}: the
end_to_end metrics of BENCHMARK.json with --trace 0, its per_layer metrics
with --trace 1.  A full record of the run (environment, every op, skipped
sweep cells) and the spans of a traced run go to .bench_build/perfbench/.
"""
import os

BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)  # before numpy loads, in this process and every child

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import call_cli, check_dmat, check_verify, digits, residual_sweep  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "cli_worker.py"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# The ops of one pass of each workload; a run repeats whole passes.
VERIFY_PASS = {
    "verify-all": [
        *(["verify", "--suite", suite, "--max-l-x2", "6"]
          for suite in ("routes", "unitarity", "homomorphism", "schur", "character", "jacobi-orth")),
        ["verify", "--suite", "all", "--max-l-x2", "0"],
    ],
    "haar-grid": [["verify", "--suite", "schur", "--max-l-x2", "6"]],
}
WORKLOADS = (*VERIFY_PASS, "dmat-mix")
# Seconds per pass (dmat-mix: per op, with its checks) at the commit that
# defined the benchmark, on a 2-core x86-64; this fixes the op count of a run.
NOMINAL_PASS_S = {"verify-all": 6.3, "haar-grid": 1.25, "dmat-mix": 0.09}
# dmat-mix needs ten samples beyond its p90 latency.
MIN_PASSES = {"verify-all": 1, "haar-grid": 1, "dmat-mix": 100}
DMAT_L_X2 = (8, 200)
SETUP_REPS = 11
# Median time of cli_worker.reference_load() at the commit that defined the
# benchmark; timings are reported as if the host ran it in this time.
REF_NOMINAL_S = 0.005
# A traced run spends about this share of --seconds on each of its two passes;
# the route accuracy sweep takes about 5 s more.
TRACE_PASS_SHARE = 0.35


def passes(workload: str, seconds: float, minimum: int = 1) -> int:
    return max(minimum, round(seconds / NOMINAL_PASS_S[workload]))


def make_ops(workload: str, seed: int, n: int) -> list[list[str]]:
    """The argv of each op of n passes; a pure function of the workload seed."""
    rng = np.random.default_rng(seed)
    if workload == "verify-all":
        kinds = VERIFY_PASS[workload]
        return [kinds[k] + ["--seed", str(rng.integers(0, 2**31))]
                for _ in range(n) for k in rng.permutation(len(kinds))]
    if workload == "haar-grid":
        return [list(VERIFY_PASS[workload][0]) for _ in range(n)]
    # Spins and cos(2 theta) are Latin-hypercube draws (one per stratum, in
    # random pairing): each run sees the same spin and colatitude mix, so the
    # latency percentiles and the failure share do not ride on the draw.
    lo, hi = DMAT_L_X2
    u, v = ((rng.permutation(n) + rng.random(n)) / n for _ in range(2))
    spins = np.rint(lo * (hi / lo) ** u).astype(int)
    thetas = 0.5 * np.arccos(2 * v - 1)
    phis, psis = rng.uniform(0.0, 2 * math.pi, (2, n))
    return [
        ["dmat", "--l-x2", str(l), "--theta", repr(float(t)), "--phi", repr(float(p)),
         "--psi", repr(float(q)), "--route", "auto"]
        for l, t, p, q in zip(spins, thetas, phis, psis)
    ]


def check_op(workload: str, argv: list[str], code: int, out: str) -> dict:
    """`ok`: the op passed.  `expected`: its outcome is allowed at this commit
    (dmat-mix: the documented high-spin defect is; see checks.check_dmat)."""
    if workload == "dmat-mix":
        return check_dmat(argv, code, out)
    ok, reason, deviation = check_verify(code, out)
    return {"ok": ok, "reason": reason, "deviation": deviation, "expected": ok}


# -- end-to-end runs ------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def reap(proc: subprocess.Popen):
    """Wait for proc and return its own rusage (not the RUSAGE_CHILDREN maximum)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def setup_sample() -> float:
    """Seconds for a fresh interpreter to import wignerkit.cli."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import wignerkit.cli"], cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    reap(proc)
    if proc.returncode != 0:
        raise SystemExit("cannot import wignerkit.cli from src/")
    return time.perf_counter() - start


def run_ops(workload: str, ops: list[list[str]]) -> tuple[list[dict], list[tuple[int, float]], float]:
    """Ops through one worker interpreter, with setup samples spread between
    them; returns op records, (index of the next op, setup seconds) pairs and
    the worker's peak RSS in MB."""
    samples_before = Counter(i * len(ops) // SETUP_REPS for i in range(SETUP_REPS))
    proc = subprocess.Popen([sys.executable, str(WORKER)], cwd=ROOT, env=child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    records, setup = [], []
    try:
        for i, argv in enumerate(ops):
            setup += [(i, setup_sample()) for _ in range(samples_before[i])]
            proc.stdin.write(json.dumps(argv).encode() + b"\n")
            proc.stdin.flush()
            header = json.loads(proc.stdout.readline())
            out = proc.stdout.read(header["n"]).decode()
            records.append({"argv": argv, "seconds": header["s"], "ref_s": header["ref_s"],
                            **check_op(workload, argv, header["code"], out)})
    except BaseException:
        proc.kill()
        raise
    finally:
        with contextlib.suppress(BrokenPipeError):  # the worker may have died
            proc.stdin.close()
        proc.stdout.close()
        usage = reap(proc)
    return records, setup, usage.ru_maxrss / 1024


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[dict]]:
    """Metrics with timings scaled to the nominal host speed, the unscaled
    timings with the scale factor, and the op records."""
    ops = make_ops(workload, seed, passes(workload, seconds, MIN_PASSES[workload]))
    records, setup, peak_rss_mb = run_ops(workload, ops)
    probes = [r["ref_s"] for r in records]
    # The probes before op i and before op i + 1 bracket op i.
    op_scale = [REF_NOMINAL_S / statistics.median(probes[i] + probes[min(i + 1, len(probes) - 1)])
                for i in range(len(probes))]

    def timings(op_s: list[float], setup_s: list[float]) -> dict:
        return {
            "setup_s": statistics.median(setup_s),
            "wall_s": sum(op_s),
            "op_p50_ms": 1e3 * statistics.median(op_s),
            "op_p90_ms": 1e3 * float(np.percentile(op_s, 90)),
        }

    unscaled = timings([r["seconds"] for r in records], [s for _, s in setup])
    scaled = timings([r["seconds"] * k for r, k in zip(records, op_scale)],
                     [s * REF_NOMINAL_S / statistics.median(probes[i]) for i, s in setup])
    passed = [r for r in records if r["ok"]]
    metrics = {
        **scaled,
        "pass_share": len(passed) / len(records),
        "accuracy_digits": min((digits(r["deviation"]) for r in passed), default=0.0),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, {**unscaled, "median_op_scale": statistics.median(op_scale)}, records


# -- traced run -------------------------------------------------------------------


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], list[dict]]:
    """Each op in-process, untraced and traced, then the route accuracy
    sweep.  Only per-layer numbers come from here, as per-op averages."""
    sys.path.insert(0, str(SRC))
    from layertrace import LayerTrace, clear_caches, load_modules

    modules = load_modules()
    ops = make_ops(workload, seed, passes(workload, TRACE_PASS_SHARE * seconds))
    n = len(ops)

    def timed(argv):
        start = time.perf_counter()
        code, out = call_cli(modules["cli"].main, argv)  # looked up per call: traced once installed
        return {"argv": argv, "seconds": time.perf_counter() - start, **check_op(workload, argv, code, out)}

    # Each op runs once untraced and once traced, alternating which goes
    # first, so warm-up and drift do not masquerade as tracing overhead.
    trace = LayerTrace(modules)
    untraced, records = [], []
    for i, argv in enumerate(ops):
        for use_trace in (False, True) if i % 2 == 0 else (True, False):
            if not use_trace:
                clear_caches(trace.caches)
                untraced.append({"pass": "untraced", **timed(argv)})
                continue
            trace.install()
            try:
                records.append({"pass": "traced", **trace.run_op(i, lambda: timed(argv))})
            finally:
                trace.uninstall()
    for record, counters in zip(records, trace.op_records):
        record["counters"] = counters

    metrics = trace.metrics(n)
    untraced_s = sum(r["seconds"] for r in untraced)
    metrics["trace.overhead_share"] = sum(r["seconds"] for r in records) / untraced_s - 1
    sweep, cells = residual_sweep(modules, np.random.default_rng([seed, 1]))
    metrics.update(sweep)
    trace.write_spans(OUT_DIR / f"{workload}.spans.npz")
    return metrics, untraced + records, cells


# -- run description and output -------------------------------------------------------


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_sha256() -> str:
    """Hash of the package sources: the benchmark often runs in an exported
    tree without .git, where it is the only record of which code ran."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "wignerkit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def describe(workload: str, why: str, args) -> dict:
    return {
        "workload": workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV,
    }


def run_workload(workload: str, spec: dict, args) -> dict:
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload]
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values, records, cells = traced(workload, args.seed, args.seconds)
        extra = {"sweep": cells}
    else:
        values, unscaled, records = end_to_end(workload, args.seed, args.seconds)
        extra = {"unscaled": unscaled}
    if set(values) != set(declared):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    result = {
        "correct": all(r["expected"] for r in records),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    run = describe(workload, why, args)
    print(json.dumps({"run": run}))
    record_path = OUT_DIR / f"{workload}.seed{args.seed}.trace{args.trace}.json"
    record_path.write_text(json.dumps({"run": run, "result": result, **extra, "ops": records}, indent=1))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "wignerkit" / "cli.py").is_file():
        print(f"wignerkit sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, spec, args)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(workload, spec, args)
        for name, metric in result["metrics"].items():
            print(f"{workload:12s} {name:40s} {metric['value']:>14.6g} {metric['unit']}")
            combined["metrics"][f"{workload}.{name}"] = metric
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
