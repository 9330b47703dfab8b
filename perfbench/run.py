"""randpress benchmark: seeded workloads through ``randpress.cli.run``, checked by closed forms.

    python3 perfbench/run.py --workload bowen-scalar --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; randpress is imported from ``src/``.
One client drives a closed loop: each op is one ``cli.run`` call on a
generated config (config -> report.json), started when the previous op has
ended and checked against its closed form after the clock stops.  Op times
and rates are scaled to a reference machine speed (see ``calibrate.py``);
the unscaled figures are printed on the summary lines.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the time
untraced and half traced and prints per-layer metrics (per-op averages over
whole passes of the pool) plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import yaml

import calibrate
import oracle
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MIN_OPS = 100  # p90 then has at least 10 ops beyond it
HARD_STOP = time.perf_counter() + 150.0  # loops stop here even short of MIN_OPS, to end within 180 s
PROBE_WINDOW = 6  # probes whose median scales an op: 3 before it, 3 after it
SETUP_RUNS = 7  # fresh interpreters, after one warm-up
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import randpress.cli\n"
    "from randpress.config import load_experiment\n"
    "load_experiment(sys.argv[1])\n"
    "print(time.perf_counter() - t0)\n"
)


class Unrunnable(Exception):
    """The checkout cannot be benchmarked (for example, it has no sources)."""


def import_cli():
    if not (SRC / "randpress" / "__init__.py").is_file():
        raise Unrunnable(f"no randpress sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import randpress.cli as cli

    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise Unrunnable(f"imported randpress from {cli.__file__}, not from {SRC}")
    return cli


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k, "unset")
                         for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


def measure_setup(config_path: Path) -> float:
    """Median time to import randpress.cli and load one config, in fresh interpreters.

    Not scaled by the speed probe: imports do not follow the machine's speed
    the way the ops do, and scaling made the figure noisier.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config_path)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def call_cli(cli, *args, **kwargs) -> tuple[int | None, str]:
    """cli.run with its console output captured; (exit code or None, error text)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.run(*args, **kwargs), ""
    except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
        return None, f"raised {exc!r}"


def read_report(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


# --- smoke check of the shipped configs -----------------------------------------------

def _smoke_product(code, report, config):
    return [f"n={r['n']} m={r['m']}: {r['value']!r}" for r in report["results"]["rows"]
            if not abs(r["value"] - (math.log(1 + math.e) + (r["m"] - 1) / r["n"] * math.log(2)))
            <= workloads.VALUE_TOL]


def _smoke_dimension(code, report, config):
    res, want = report["results"], math.log(6) / math.log(12)
    ok = res["converged"] and abs(res["t_star"] - want) <= workloads.ROOT_TOL
    return [] if ok else [f"t_star {res['t_star']!r}, want log 6/log 12 = {want!r}"]


def _smoke_golden(code, report, config):
    res, run = report["results"], config["run"]
    n, m = run["n_list"][-1], run["m_list"][-1]
    M = config["bundle"]["allowed"][0]
    problems = []
    finite = oracle.one_state_log_count(M, n + m - 1) / n
    if not abs(res["pressure"] - finite) <= workloads.VALUE_TOL:
        problems.append(f"pressure {res['pressure']!r}, want {finite!r}")
    if not abs(res["sides"][0]["entropy"] - math.log(oracle.GOLDEN)) <= workloads.VALUE_TOL:
        problems.append(f"Parry entropy {res['sides'][0]['entropy']!r}, want log golden ratio")
    return problems


SMOKE = {
    "product_pressure.yaml": _smoke_product,
    "random_scalar_dimension.yaml": _smoke_dimension,
    "golden_mean_vp.yaml": _smoke_golden,
}


def smoke_check(cli, work: Path) -> list[str]:
    """Run each shipped config once, untimed, against its documented closed form."""
    problems = []
    for name, check in SMOKE.items():
        path = ROOT / "configs" / name
        out = work / f"smoke-{path.stem}"
        code, error = call_cli(cli, str(path), output_dir=str(out))
        report = read_report(out / "report.json")
        if code != 0 or report is None:
            problems.append(f"smoke {name}: exit {code} {error}".rstrip())
            continue
        try:
            found = check(code, report, yaml.safe_load(path.read_text()))
        except (KeyError, IndexError, TypeError) as exc:
            found = [f"unexpected report layout: {exc!r}"]
        problems += [f"smoke {name}: {p}" for p in found]
    return problems


# --- the closed loop ------------------------------------------------------------------

@dataclass
class Loop:
    """What one closed loop measured; `scale` maps its wall time to the reference probe speed."""

    wall: list[float]  # op wall times
    scaled: list[float]  # op times at the reference probe speed
    busy_scaled: float  # loop time without the probes, at the reference probe speed
    wall_total: float
    scale: float  # median of REF_PROBE_S / probe time
    failures: list[str]

    @property
    def ops_per_s(self) -> float:
        return len(self.wall) / self.busy_scaled


def closed_loop(cli, cases, paths, seconds: float, min_ops: int, tracer=None) -> Loop:
    """Run whole passes over the pool, ops back to back, until time is up.

    Whole passes weigh every case equally, so percentiles do not shift with
    where time ran out.  A speed probe runs before the first op and after
    each; an op is scaled by the median of the PROBE_WINDOW probes around it.
    """
    wall, steps, failures = [], [], []
    probes = [calibrate.probe()]
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        now = time.perf_counter()
        if (now >= deadline and i >= min_ops and i % len(cases) == 0) or (now >= HARD_STOP and i):
            break
        case, path = cases[i % len(cases)], paths[i % len(cases)]
        report_path = path.parent / "report.json"
        report_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        if tracer is None:
            code, error = call_cli(cli, str(path))
        else:
            code, error = tracer.op(i, call_cli, cli, str(path))
        wall.append(time.perf_counter() - t0)
        report = read_report(report_path)
        if report is None:
            problems = [error or f"exit {code} and no report.json"]
        else:
            try:
                problems = case.check(code, report)
            except (KeyError, IndexError, TypeError) as exc:
                problems = [f"unexpected report layout: {exc!r}"]
        if problems:
            failures.append(f"op {i} [{case.label}]: " + "; ".join(problems))
        steps.append(time.perf_counter() - t0)
        probes.append(calibrate.probe())
        i += 1
    half = PROBE_WINDOW // 2
    factors = [calibrate.REF_PROBE_S / statistics.median(probes[max(0, k - half + 1):k + half + 1])
               for k in range(len(wall))]
    return Loop(
        wall=wall,
        scaled=[w * f for w, f in zip(wall, factors)],
        busy_scaled=sum(s * f for s, f in zip(steps, factors)),
        wall_total=time.perf_counter() - start,
        scale=statistics.median(factors),
        failures=failures,
    )


def write_configs(cases, work: Path) -> list[Path]:
    paths = []
    for i, case in enumerate(cases):
        case_dir = work / f"case-{i:02d}"
        case_dir.mkdir(parents=True)
        config = case.config | {"output": {"dir": str(case_dir)}}
        path = case_dir / "config.yaml"
        path.write_text(yaml.safe_dump(config, sort_keys=False))
        paths.append(path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_cli()
    except Unrunnable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    env = environment()
    problems = oracle.self_check()
    cases = workloads.build(args.workload, args.seed)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    tag = f"{args.workload}{'-trace' if args.trace else ''}"
    try:
        paths = write_configs(cases, work)
        setup_s = measure_setup(paths[0])
        problems += smoke_check(cli, work)
        if args.trace:
            half = args.seconds / 2
            plain = closed_loop(cli, cases, paths, half, 1)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = closed_loop(cli, cases, paths, half, 1, tracer)
            finally:
                tracer.uninstall()
            loops = [plain, traced]
            metrics = tracer.layer_metrics(len(traced.wall), traced.scale) | {
                "trace.ops_per_s_untraced": (plain.ops_per_s, "1/s"),
                "trace.ops_per_s_traced": (traced.ops_per_s, "1/s"),
                "trace.overhead_share": (1.0 - traced.ops_per_s / plain.ops_per_s, "share"),
            }
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}.npz")
        else:
            loop = closed_loop(cli, cases, paths, args.seconds, MIN_OPS)
            loops = [loop]
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_p50_s": (float(np.percentile(loop.scaled, 50)), "s"),
                "op_p90_s": (float(np.percentile(loop.scaled, 90)), "s"),
                "ops_per_s": (loop.ops_per_s, "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for loop in loops for f in loop.failures]
    wall = [w for loop in loops for w in loop.wall]
    attempted, failed = len(wall), len(failures)
    for line in (problems + failures)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"closed loop, 1 client, pool of {len(cases)} configs, {attempted} ops "
          f"({failed} failed, failed_share {failed / attempted:.6g})")
    if args.trace:
        print(f"note: {tracing.NO_WAIT_NOTE}")
        if tracer.absent:
            print("absent layers (0 calls): " + ", ".join(tracer.absent))
    else:
        print(f"setup_s is the median of {SETUP_RUNS} fresh interpreters; "
              f"op percentiles are over {attempted} ops")
    untraced = loops[0]
    print(f"times are at the reference speed (probe = {calibrate.REF_PROBE_S * 1e3:g} ms); "
          f"untraced, as measured: probe {calibrate.REF_PROBE_S / untraced.scale * 1e3:.3g} ms, "
          f"op p50 {np.percentile(untraced.wall, 50):.4g} s, "
          f"p90 {np.percentile(untraced.wall, 90):.4g} s, "
          f"{len(untraced.wall) / untraced.wall_total:.4g} ops/s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:55s} {value:14.6g} {unit}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "env": env,
         "problems": problems, "failures": failures, "failed_share": failed / attempted, **result},
        indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
