"""Digest of every report the CLI writes over a fixed set of cases, for byte-identity checks.

Run from the root of a source checkout, with randpress imported from ``src/``:

    PYTHONPATH=src python3 scripts/report_digest.py [--seeds 1-6] > digest.json

Every case runs ``randpress.cli.run`` in this process, from the root of the
checkout, and writes into the one output directory ``.report-digest``.  As a
relative path it is the same string in every tree, and ``report.json``
records it.  The cases are:

- the three ``configs/*.yaml`` under every verb, plus Monte Carlo ``pressure``
  and ``dimension`` variants;
- every perfbench pool case at each seed;
- the cocycle-matrix pool systems at each seed, run as ``dimension`` in exact
  and in Monte Carlo mode, with every generator scaled by 6 so that the
  pressure falls in t and the root search runs.

Standard output is one JSON object ``{case: [exit code, sha256(report.json),
sha256(curve.csv), stderr]}``; a file the case did not write hashes as null,
and an exception the CLI let through is its exit code null and its
``Type: message`` line as stderr.  Two trees agree on every exit code, report,
curve and stderr exactly when ``cmp`` finds their digests equal.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np
import yaml

sys.dont_write_bytecode = True  # leaves no __pycache__ under perfbench/
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

from randpress import cli  # noqa: E402
from randpress.config import VERBS  # noqa: E402

OUT = Path(".report-digest")
MC = ["run.mode=monte_carlo", "run.samples=24"]


def _seeds(text: str) -> list[int]:
    """'1-6' or '1,3,5' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _run(out: Path, config: Path, overrides=(), verb=None) -> list:
    """[exit code, sha256(report.json), sha256(curve.csv), stderr] of one cli.run call."""
    for name in ("report.json", "curve.csv"):
        (out / name).unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")  # every case shows its own warnings
        try:
            code = cli.run(str(config), list(overrides), verb=verb, output_dir=str(out))
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            code = None
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
    return [code, _sha256(out / "report.json"), _sha256(out / "curve.csv"), err.getvalue()]


def _write(out: Path, config: dict) -> Path:
    path = out / "config.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False))
    return path


def cases(out: Path, seeds: list[int]):
    """(case name, digest row) of every case, in a fixed order."""
    for path in sorted((ROOT / "configs").glob("*.yaml")):
        config = path.relative_to(ROOT)  # the same string in every tree
        for verb in VERBS:
            yield f"{config} {verb}", _run(out, config, verb=verb)
        for verb in ("pressure", "dimension"):
            yield f"{config} {verb} monte_carlo", _run(out, config, MC, verb=verb)
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for i, case in enumerate(workloads.build(workload, seed)):
                yield (f"{workload} seed={seed} #{i} {case.label}",
                       _run(out, _write(out, case.config)))
    for seed in seeds:
        for i, case in enumerate(workloads.build("cocycle-matrix", seed)):
            run, potential = case.config["run"], case.config["potential"]
            matrices = (6.0 * np.array(potential["matrices"])).tolist()
            for mode, samples in (("exact", 0), ("monte_carlo", 24)):
                config = case.config | {"potential": potential | {"matrices": matrices}, "run": {
                    "verb": "dimension", "n_list": run["n_list"][-1:], "m_list": run["m_list"][-1:],
                    "mode": mode, "samples": samples, "seed": seed, "budget": run["budget"]}}
                yield (f"cocycle-matrix dimension {mode} seed={seed} #{i} {case.label}",
                       _run(out, _write(out, config)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-6"),
                        help="perfbench pool seeds, e.g. 1-6 or 1,3,5 (default 1-6)")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    json.dump(dict(cases(OUT, args.seeds)), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
