"""Configuration-driven command line entry point.

Reads a YAML experiment config, runs one verb, and writes deterministic
report files (JSON, plus CSV for curves).  Identical config and seed produce
byte-identical reports; wall time goes to the console only so re-runs stay
reproducible at the byte level.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from json.encoder import encode_basestring_ascii

import yaml

from . import __version__
from .bowen import dimension_root, lyapunov_spread
from .config import Experiment, load_experiment
from .errors import InvariantViolation, RandpressError
from .measures import _lemma34
from .potentials import check_subadditivity
from .pressure import pressure_curve
from .varprinciple import empirical_measure_diagnostic, vp_gap

_FEKETE_TOL = 1e-9
_SLACK_TOL = 1e-12
_SUBADD_TOL = 1e-12
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # float.__repr__ -> JSON


def _report_path(exp: Experiment, name: str) -> str:
    os.makedirs(exp.output_dir, exist_ok=True)
    path = os.path.join(exp.output_dir, name)
    try:  # a new file each time: rewriting one in place costs several times more on ext4
        os.unlink(path)
    except FileNotFoundError:
        pass
    return path


def _json(obj, out: list, indent: str = "\n") -> list:
    """Append obj's text to out as json.dumps(obj, sort_keys=True, indent=2) lays it out."""
    if isinstance(obj, float):
        text = float.__repr__(obj)
        out.append(_JSON_NONFINITE.get(text, text))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        inner = indent + "  "
        out.append("[" + inner)
        for item in obj:
            _json(item, out, inner)
            out.append("," + inner)
        out[-1] = indent + "]" if obj else "[]"  # over the last separator, or the bare opening
    elif isinstance(obj, dict):
        inner = indent + "  "
        out.append("{" + inner)
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(encode_basestring_ascii(key) + ": ")
            _json(obj[key], out, inner)
            out.append("," + inner)
        out[-1] = indent + "}" if obj else "{}"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return out


def _write_json(exp: Experiment, results: dict) -> str:
    payload = {
        "tool": "randpress",
        "version": __version__,
        "verb": exp.run.verb,
        "seed": exp.run.seed,
        "budget_cap": exp.run.budget,
        "config": exp.resolved,
        "results": results,
    }
    path = _report_path(exp, "report.json")
    with open(path, "w") as fh:
        fh.write("".join(_json(payload, [])) + "\n")
    return path


def _write_curve_csv(exp: Experiment, rows) -> str:
    path = _report_path(exp, "curve.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "m", "value", "stdError", "mode", "seed"])
        for r in rows:
            writer.writerow([r.n, r.m, repr(r.value), repr(r.std_error), r.mode,
                             "" if r.seed is None else r.seed])
    return path


def _run_pressure(exp: Experiment) -> tuple[dict, int]:
    run = exp.run
    curve = pressure_curve(
        exp.chain, exp.bundle, exp.potential, run.n_list, run.m_list,
        mode=run.mode, samples=run.samples, seed=run.seed, budget=run.budget,
    )
    _write_curve_csv(exp, curve.rows)
    results = {
        "extrapolated": curve.extrapolated,
        "fit_intercept": curve.fit_intercept,
        "fit_slope": curve.fit_slope,
        "rows": [
            {"n": r.n, "m": r.m, "value": r.value, "std_error": r.std_error, "mode": r.mode}
            for r in curve.rows
        ],
    }
    return results, 0


def _run_vp_check(exp: Experiment) -> tuple[dict, int]:
    run = exp.run
    report = vp_gap(
        exp.chain, exp.bundle, exp.potential, exp.measures,
        n=run.n_list[-1], m=run.m_list[-1], N=run.N, budget=run.budget,
    )
    results = {
        "pressure": report.pressure.value,
        "best_lower": report.best_lower,
        "gap": report.gap,
        "sides": [
            {
                "entropy": s.entropy,
                "f_star_upper": s.bracket.upper,
                "f_star_estimate": s.bracket.estimate,
                "side_upper": s.side_upper,
                "excluded_minus_inf": s.excluded,
            }
            for s in report.sides
        ],
    }
    return results, 0


def _run_lemmas(exp: Experiment) -> tuple[dict, int]:
    run = exp.run
    violations = []

    worst_subadd = check_subadditivity(exp.potential, exp.chain, exp.bundle, sample_count=1000,
                                       seed=run.seed)
    if worst_subadd > _SUBADD_TOL:
        violations.append("subadditivity")

    lemma34 = []
    fekete_worst = None
    for meas in exp.measures:
        slack, a = _lemma34(meas, exp.chain, exp.bundle, exp.potential, min(run.N, 4), 2,
                            range(1, min(run.N, 8) + 1), run.budget)  # a_1 .. a_N, one walk
        lemma34.append(slack)
        if slack < -_SLACK_TOL:
            violations.append("lemma34")
        for i in range(1, len(a) + 1):
            for j in range(1, len(a) + 1 - i):
                viol = a[i + j - 1] - a[i - 1] - a[j - 1]
                fekete_worst = viol if fekete_worst is None else max(fekete_worst, viol)
        if fekete_worst is not None and fekete_worst > _FEKETE_TOL:
            violations.append("fekete")

    results = {
        "subadditivity_worst": worst_subadd,
        "lemma34_slacks": lemma34,
        "fekete_worst": fekete_worst,
        "violations": sorted(set(violations)),
    }
    return results, (2 if violations else 0)


def _run_dimension(exp: Experiment) -> tuple[dict, int]:
    run = exp.run
    root = dimension_root(
        exp.chain, exp.bundle, exp.potential, n=run.n_list[-1], m=run.m_list[-1],
        t_max=run.t_max, tol_t=run.tol_t, tol_p=run.tol_p, mode=run.mode,
        samples=run.samples, seed=run.seed, budget=run.budget,
    )
    results = {
        "t_star": root.t_star,
        "bracket": list(root.bracket),
        "pressure_at_root": root.pressure_at_root,
        "converged": root.converged,
        "upper_estimate": root.upper_estimate,
        "iterations": [{"t": t, "pressure": p} for t, p in root.iterations],
    }
    if exp.measures:
        top, bottom, spread = lyapunov_spread(
            exp.chain, exp.bundle, exp.potential, exp.measures[0],
            n=min(run.N, 6), budget=run.budget,
        )
        results["lyapunov"] = {"top": top, "bottom": bottom, "spread": spread}
    if not root.converged:
        print(f"root did not converge: bracket {list(root.bracket)}, "
              f"pressure {root.pressure_at_root}", file=sys.stderr)
    return results, (0 if root.converged else 2)


def _run_diagnose(exp: Experiment) -> tuple[dict, int]:
    run = exp.run
    marginal, defect = empirical_measure_diagnostic(
        exp.chain, exp.bundle, exp.potential, n=run.n_list[-1], m=run.m_list[-1],
        budget=run.budget,
    )
    results = {
        "marginal": {
            f"{exp.chain.states[s]},{exp.bundle.alphabet[a]}": marginal[s, a]
            for s in range(marginal.shape[0])
            for a in range(marginal.shape[1])
        },
        "shift_defect_l1": defect,
    }
    return results, 0


_VERB_RUNNERS = {
    "pressure": _run_pressure,
    "convergence": _run_pressure,
    "vp-check": _run_vp_check,
    "lemmas": _run_lemmas,
    "dimension": _run_dimension,
    "diagnose": _run_diagnose,
}


def run(config_path: str, overrides: list[str] | None = None,
        verb: str | None = None, output_dir: str | None = None) -> int:
    """Run one experiment; returns the process exit code."""
    started = time.monotonic()
    try:
        overrides = list(overrides or [])
        for path, value in (("run.verb", verb), ("output.dir", output_dir)):
            if value is not None:  # taken as given: a YAML-quoted string loads back unchanged
                overrides.append(f"{path}={yaml.safe_dump(value)}")
        exp = load_experiment(config_path, overrides)
        try:
            results, code = _VERB_RUNNERS[exp.run.verb](exp)
        except InvariantViolation as exc:
            _write_json(exp, {"invariant_violation": str(exc)})
            print(f"invariant violation: {exc}", file=sys.stderr)
            return 2
    except (RandpressError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = _write_json(exp, results)
    elapsed = time.monotonic() - started
    print(f"randpress {__version__} verb={exp.run.verb} wall_time={elapsed:.3f}s "
          f"budget_cap={exp.run.budget} report={path}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="randpress",
        description="Run a pressure/entropy/dimension experiment from a YAML config.",
    )
    parser.add_argument("config", help="path to the experiment config")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="PATH=VALUE", help="override a config key, e.g. run.seed=7")
    parser.add_argument("--verb", default=None, help="override run.verb")
    parser.add_argument("--out", default=None, help="override output.dir")
    args = parser.parse_args(argv)
    return run(args.config, args.overrides, verb=args.verb, output_dir=args.out)


if __name__ == "__main__":
    raise SystemExit(main())
