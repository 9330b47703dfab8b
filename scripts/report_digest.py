"""Digest of every report the CLI writes over a fixed set of cases, for byte-identity checks.

Run from the root of a source checkout, with randpress imported from ``src/``:

    PYTHONPATH=src python3 scripts/report_digest.py [--seeds 1-6] [--values] > digest.json
    PYTHONPATH=src python3 scripts/report_digest.py --diff parent.json change.json

Every case runs ``randpress.cli.run`` in this process, from the root of the
checkout, and writes into the one output directory ``.report-digest``.  As a
relative path it is the same string in every tree, and ``report.json``
records it.  The cases are:

- the three ``configs/*.yaml`` under every verb, plus Monte Carlo ``pressure``
  and ``dimension`` variants;
- every perfbench pool case at each seed;
- the cocycle-matrix pool systems at each seed, run as ``dimension`` in exact
  and in Monte Carlo mode, with every generator scaled by 6 so that the
  pressure falls in t and the root search runs;
- the cocycle-matrix pool systems at each seed, run as Monte Carlo
  ``pressure`` over their own ``n_list`` x ``m_list`` with 24 samples drawn
  from the pool seed: a sampled forest shared by every cell of a grid, on the
  joint-word path of a matrix cocycle;
- the lemma-vp pool systems at each seed, scaled the same way and run as
  exact ``dimension`` at n = N: each carries a valid measure, so the report
  also holds the Lyapunov spread of ``bowen.lyapunov_spread``; their names
  drop the pool case's verb, so that only cases that run a verb name it;
- ``vp-check`` on a Bernoulli base with 2 fiber choices under one state and 3
  under the other, with an ``auto: true`` row-uniform measure whose joint law
  is stationary though pi_s Q_s = pi_{s'} fails;
- ``vp-check`` and ``lemmas`` on a scalar cocycle with a zero generator on a
  fiber symbol its measure never visits, where the additive table is -inf;
- the same scalar cocycle as a ``scaled_inverse`` ``pressure`` run at t = 0,
  where every fiber word weighs 1, and as a ``dimension`` run, which raises
  at the first probe t > 0;
- ``pressure`` and ``dimension`` under both norms on a 3x3 cocycle, which keeps
  the SVD and inverse path, and on a near-singular 2x2 cocycle (products of
  condition up to about 1e12), which reads the 2x2 closed forms; each carries
  a uniform measure, so ``dimension`` also reports the Lyapunov spread;
- ``pressure``, ``vp-check`` and ``dimension`` on a 3x3 similarity cocycle, which
  reduces to an additive table through one SVD per generator;
- ``pressure`` in exact and in Monte Carlo mode on a Bernoulli base with full
  2-symbol fibers and a table of 150 nats plus log 2 per level, whose DP
  leaves linear space at level 3 and takes the log-space step;
- ``vp-check`` at N = 9 with a 2x2 cocycle and a uniform measure on full 2-shifts,
  whose depth-9 measure cylinders (2^18 rows) span four chunks of the joint walk,
  which cuts every shallower depth where those chunks fall, and ``lemmas`` at N = 8
  on a 3-state base (3^8 x 2^8 rows at depth 8, 26 chunks), whose Lemma 3.4 and
  Fekete leaves read the shallower depths that ``vp-check``'s minimum does not;
- error paths: ``pressure`` on a singular 2x2 ``scaled_inverse`` potential, a
  ``pressure`` grid that crosses the base budget and one that crosses the
  fiber budget, ``lemmas`` on a system whose longest words of the power
  inequality would cross the base budget (named for that cell, which
  ``lemmas`` no longer runs), configs whose sections are not mappings or
  whose ``--set`` value does not parse, then one non-number or ragged row in
  each config array, an unknown ``potential.norm``, a ``vp-check`` measure of
  the wrong shape, state and symbol names that are not distinct strings, a
  YAML ``true`` or ``null`` array entry, a measure's ``initial`` next to
  ``auto: true``, and a budget below 1 in ``run.budget``; last, the product
  config run with ``RANDPRESS_BUDGET=-5`` in the environment, a variable
  randpress does not read, so the row matches the plain ``pressure`` run.

Standard output is one JSON object ``{case: [exit code, sha256(report.json),
sha256(curve.csv), stderr]}``; a file the case did not write hashes as null,
and an exception the CLI let through is its exit code null and its
``Type: message`` line as stderr.  Two trees agree on every exit code, report,
curve and stderr exactly when ``cmp`` finds their digests equal.

With ``--values`` each row also holds the numeric leaves of its ``report.json``
(``{json path: number}``, or null with no report).  ``--diff`` reads two such
digests and prints the largest relative difference of a leaf with the case and
path where it occurs, and apart from it the largest absolute difference of a
leaf that is near 0 by design: a root-search residual (``pressure_at_root``,
``iterations/*/pressure``), whose sign is rounding noise at the root, and the
pressure curve's ``/results/fit_slope``, which is rounding noise on a curve flat
in 1/n.  A relative difference of such values says nothing (slopes of -6.9e-15
and -6.3e-16 differ by 0.9 relative), and as the largest one it would hide a real
gap elsewhere.  A case whose leaf paths differ has its shared leaves compared and the
paths found on one side only listed; a case whose exit code or stderr differs is
listed, uncompared.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import traceback
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import yaml

from randpress import cli
from randpress.config import VERBS

ROOT = Path(__file__).resolve().parent.parent
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


def _leaves(node, path="") -> dict:
    """{json path: number} of every int or float leaf of a parsed JSON value."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return {k: v for key, item in items for k, v in _leaves(item, f"{path}/{key}").items()}
    return {path: node} if isinstance(node, (int, float)) and not isinstance(node, bool) else {}


def _run(out: Path, config: Path, overrides=(), verb=None, out_flag=True) -> list:
    """[exit code, sha256(report.json), sha256(curve.csv), stderr] of one cli.run call.

    Without out_flag the config's own output.dir is read; only a case that fails at
    load time may use that.
    """
    for name in ("report.json", "curve.csv"):
        (out / name).unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")  # every case shows its own warnings
        try:
            code = cli.run(str(config), list(overrides), verb=verb,
                           output_dir=str(out) if out_flag else None)
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            code = None
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
    return [code, _sha256(out / "report.json"), _sha256(out / "curve.csv"), err.getvalue()]


def _report_leaves(out: Path) -> dict | None:
    """The numeric leaves of the report.json the last case wrote, or None."""
    report = out / "report.json"
    return _leaves(json.loads(report.read_text())) if report.exists() else None


def _relative(a: float, b: float) -> float:
    """|a - b| over the larger magnitude; 0 for equal values, infinite values included."""
    if a == b or (a != a and b != b):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _absolute(a: float, b: float) -> float:
    """|a - b|; 0 for equal values, infinite values included."""
    return 0.0 if a == b or (a != a and b != b) else abs(a - b)


def _near_zero(path: str) -> bool:
    """Whether a leaf is compared absolutely: /results/fit_slope, or a root-search residual
    (pressure_at_root or iterations/*/pressure)."""
    parts = path.split("/")
    return path == "/results/fit_slope" or parts[-1] == "pressure_at_root" or (
        parts[-3:-2] == ["iterations"] and parts[-1] == "pressure")


def diff(before: dict, after: dict) -> dict:
    """The largest relative difference of a leaf between two --values digests, the largest
    absolute difference of a _near_zero leaf, the leaf paths found on one side only, and the
    cases whose exit code or stderr differ."""
    worst = {False: [0.0, None], True: [0.0, None]}  # keyed by _near_zero(path)
    one_side, other = {}, []
    for case in sorted(before.keys() | after.keys()):
        a, b = before.get(case), after.get(case)
        if a is None or b is None or len(a) < 5 or a[0] != b[0] or a[3] != b[3]:
            other.append(case)
            continue
        x, y = a[4] or {}, b[4] or {}
        if x.keys() != y.keys():
            one_side[case] = {"before_only": sorted(x.keys() - y.keys()),
                              "after_only": sorted(y.keys() - x.keys())}
        for path in (path for path in x if path in y):
            near_zero = _near_zero(path)
            gap = (_absolute if near_zero else _relative)(x[path], y[path])
            if gap > worst[near_zero][0]:
                worst[near_zero] = [gap, [case, path, x[path], y[path]]]
    return {"max_relative_difference": worst[False][0], "at": worst[False][1],
            "max_residual_abs_difference": worst[True][0], "residual_at": worst[True][1],
            "cases": len(before),
            "same_hashes": sum(before[c][1:3] == after.get(c, [None] * 3)[1:3] for c in before),
            "leaf_paths_on_one_side": one_side, "other_differences": other}


def _write(out: Path, config: dict) -> Path:
    path = out / "config.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False))
    return path


def cases(out: Path, seeds: list[int]):
    """(case name, digest row) of every case, in a fixed order."""
    sys.dont_write_bytecode = True  # leaves no __pycache__ under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

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
    for seed in seeds:
        for i, case in enumerate(workloads.build("cocycle-matrix", seed)):
            config = case.config | {"run": case.config["run"] | {
                "mode": "monte_carlo", "samples": 24, "seed": seed}}
            yield (f"cocycle-matrix pressure monte_carlo seed={seed} #{i} {case.label}",
                   _run(out, _write(out, config)))
    for seed in seeds:
        for i, case in enumerate(workloads.build("lemma-vp", seed)):
            run, potential = case.config["run"], case.config["potential"]
            matrices = (6.0 * np.array(potential["matrices"])).tolist()
            config = case.config | {"potential": potential | {"matrices": matrices}, "run": {
                "verb": "dimension", "n_list": [run["N"]], "m_list": [1], "N": run["N"],
                "seed": seed, "budget": run["budget"]}}
            system = case.label.partition(" ")[2]  # the label without the pool case's verb
            yield f"lemma-vp dimension exact seed={seed} #{i} {system}", _run(
                out, _write(out, config))
    yield "fix-b vp-check auto row-uniform measure", _run(out, _write(out, FIX_B))
    for verb in ("vp-check", "lemmas"):
        yield f"zero generator off the measure {verb}", _run(out, _write(out, ZERO_GENERATOR),
                                                              verb=verb)
    for verb, potential in (("pressure", ZERO_GENERATOR["potential"] | {
            "kind": "scaled_inverse", "t": 0.0}), ("dimension", ZERO_GENERATOR["potential"])):
        yield f"zero generator scalar {potential['kind']} {verb}", _run(
            out, _write(out, COCYCLE | {"potential": potential}), verb=verb)
    for name, system in (("3x3", CUBIC), ("near-singular 2x2", NEAR_SINGULAR)):
        for norm, verb in itertools.product(("spectral", "max_row_sum"), ("pressure", "dimension")):
            config = system | {"potential": system["potential"] | {"norm": norm}}
            yield f"{name} cocycle {norm} {verb}", _run(out, _write(out, config), verb=verb)
    for verb in ("pressure", "vp-check", "dimension"):
        yield f"3x3 similarity cocycle spectral {verb}", _run(out, _write(out, SIMILAR_3X3),
                                                              verb=verb)
    for mode in ("exact", "monte_carlo"):
        config = WIDE_TABLE | {"run": WIDE_TABLE["run"] | {"mode": mode, "samples": 24}}
        yield f"wide table log-space pressure {mode}", _run(out, _write(out, config))
    for config in (MULTI_CHUNK, MULTI_CHUNK_LEMMAS):
        yield f"multi-chunk measure sums {config['run']['verb']}", _run(out, _write(out, config))


# A 2x2 cocycle over a 2-state base with A = 2, and the same cocycle with the generator
# of (1, 0) replaced by the zero matrix, as a scaled_inverse potential.
COCYCLE = {
    "base": {"transition": [[0.5, 0.5], [0.5, 0.5]]},
    "bundle": {"allowed": [[[1, 1], [1, 1]]] * 2},
    "potential": {"kind": "cocycle", "matrices": [
        [[[2.0, 0.0], [0.0, 2.0]], [[2.0, 1.0], [0.0, 1.0]]],
        [[[1.0, 2.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 3.0]]]]},
    "run": {"verb": "pressure", "n_list": [1, 3], "m_list": [1, 2]},
}
SINGULAR = COCYCLE | {"potential": {"kind": "scaled_inverse", "t": 0.5, "matrices": [
    COCYCLE["potential"]["matrices"][0], [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 3.0]]]]}}
# The same base and bundle with a uniform measure, and 3x3 generators with singular values
# in about [1.4, 3.5]; then generators of condition about 1e4 (integer entries near a rank-one
# matrix, |det| 3e4 to 6e4, singular values about 2 and 2e4 to 3e4), whose depth-3 products
# reach condition about 1e12.
UNIFORM = [{"transition": [[[0.5, 0.5], [0.5, 0.5]]] * 2, "auto": True}]
CUBIC = COCYCLE | {"measures": UNIFORM, "potential": {"kind": "cocycle", "matrices": [
    [[[2.5, 0.3, 0.0], [0.1, 2.0, 0.4], [0.0, 0.2, 3.0]],
     [[2.0, -0.4, 0.1], [0.3, 2.5, 0.0], [0.2, 0.1, 2.2]]],
    [[[3.0, 0.0, 0.4], [0.2, 2.2, -0.3], [0.1, 0.3, 2.0]],
     [[2.2, 0.2, 0.2], [-0.3, 2.4, 0.1], [0.4, 0.0, 2.6]]]]}}
NEAR_SINGULAR = COCYCLE | {"measures": UNIFORM, "potential": {"kind": "cocycle", "matrices": [
    [[[1e4, 1e4], [1e4 - 4, 1e4]], [[1e4, 1e4 - 6], [1e4, 1e4]]],
    [[[2e4, 1e4], [2e4 - 5, 1e4]], [[1e4, 2e4 - 6], [1e4, 2e4]]]]}}


def _similarity(r: float, a: float, b: float) -> list:
    """r times the rotation by a about the z axis after the rotation by b about the x axis."""
    z = np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]])
    x = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(b), -np.sin(b)], [0.0, np.sin(b), np.cos(b)]])
    return (r * z @ x).tolist()


# 3x3 similarities with scales 2, 2.5, 3 and 1.5, which reduce to additive tables through one
# SVD per generator.
SIMILAR_3X3 = COCYCLE | {"measures": UNIFORM, "potential": {"kind": "cocycle", "matrices": [
    [_similarity(2.0, 0.3, 1.1), _similarity(2.5, 2.0, -0.4)],
    [_similarity(3.0, -1.2, 0.7), _similarity(1.5, 0.9, 2.6)]]}}
# 2^9 base words times 2^9 fiber words at depth N = 9: four chunks of 2^16 joint rows; then
# 3^8 base words times 2^8 fiber words at depth 8, the deepest lemmas reads.
MULTI_CHUNK = COCYCLE | {"measures": UNIFORM, "run": {
    "verb": "vp-check", "n_list": [2], "m_list": [1], "N": 9}}
MULTI_CHUNK_LEMMAS = {
    "base": {"transition": [[1 / 3] * 3] * 3},
    "bundle": {"allowed": [[[1, 1], [1, 1]]] * 3},
    "potential": {"kind": "cocycle", "matrices": [
        *COCYCLE["potential"]["matrices"], [[[1.5, 0.5], [0.0, 2.0]], [[1.0, 1.0], [0.5, 2.0]]]]},
    "measures": [{"transition": [[[0.5, 0.5], [0.5, 0.5]]] * 3, "auto": True}],
    "run": {"verb": "lemmas", "N": 8},
}
# Bernoulli base, 2 fiber choices under s0 and 3 under s1, zero potential (pressure
# 0.5 log 6), and a row-uniform measure whose initials the auto solve supplies.
FIX_B = {
    "base": {"transition": [[0.5, 0.5], [0.5, 0.5]]},
    "bundle": {"allowed": [[[1, 1, 0]] * 3, [[1, 1, 1]] * 3]},
    "potential": {"kind": "additive", "phi": [[0.0] * 3] * 2},
    "measures": [{"transition": [[[0.5, 0.5, 0.0]] * 3, [[1 / 3] * 3] * 3], "auto": True}],
    "run": {"verb": "vp-check", "n_list": [6], "m_list": [1], "N": 3},
}
# A scalar cocycle whose generator on fiber symbol 1 is 0, with the measure on symbol 0 only.
ZERO_GENERATOR = FIX_B | {
    "bundle": {"allowed": [[[1, 1], [1, 1]]] * 2},
    "potential": {"kind": "cocycle", "matrices": [[2.0, 0.0], [3.0, 0.0]]},
    "measures": [{"initial": [[1.0, 0.0]] * 2, "transition": [[[1.0, 0.0]] * 2] * 2}],
}
# A Bernoulli base with full 2-symbol fibers and a per-level spread of 150 nats plus log 2:
# past the 600-nat range rule from level 3 on, so the DP takes the log-space step.
WIDE_TABLE = COCYCLE | {
    "potential": {"kind": "additive", "phi": [[0.0, 150.0], [-75.0, 75.0]]},
    "run": {"verb": "pressure", "n_list": [4, 8], "m_list": [1, 2]},
}
# 3^7 base words exceed the budget, 2^7 fiber words do not: the power inequality's k=3, n=2,
# m=2 cell, which lemmas ran until it stopped checking that inequality.
LEMMAS = {
    "base": {"transition": [[0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]]},
    "bundle": {"allowed": [[[1, 1], [1, 1]]] * 3},
    "potential": {"kind": "additive", "phi": [[0.0, 1.0], [0.5, 0.2], [0.1, 0.3]]},
    "measures": [{"transition": [[[0.5, 0.5], [0.5, 0.5]]] * 3, "auto": True}],
    "run": {"verb": "lemmas", "N": 4, "budget": 1000},
}
BAD_SECTIONS = ["measures=5", "measures={a: 1}", "measures=[5]", "bundle=[1]", "run=5",
                "base=[1]", "potential=additive", "run.seed=[1"]
# One non-number or ragged row per config array, an unknown norm (product_pressure.yaml), and
# a measure of the wrong shape (golden_mean_vp.yaml): each fails at load, naming its key.
BAD_ARRAYS = ["base.transition=[[abc]]", "bundle.allowed=[[[1, 1], [1]]]",
              "potential.phi=[[0.0, [1.0]]]",
              "potential={kind: cocycle, matrices: [[2.0, abc]]}",
              "potential={kind: cocycle, matrices: [[2.0, 3.0]], norm: foo}",
              "measures=[{transition: [[[0.5, abc], [0.5, 0.5]]], auto: true}]",
              "measures=[{transition: [[[0.5, 0.5], [0.5, 0.5]]], initial: [[0.5, [0.5]]]}]"]
BAD_MEASURE_SHAPE = "measures=[{transition: [[[0.5, 0.5, 0], [0.5, 0.5, 0], [1, 0, 0]]], " \
                    "auto: true}]"
# Names that are not one distinct string per state or symbol, YAML true and null array
# entries, an initial law that auto: true would ignore and a budget below 1
# (product_pressure.yaml); each fails at load, naming its key.
BAD_INPUTS = ["bundle.alphabet=ab", "bundle.alphabet=5", "bundle.alphabet=[x, x]",
              "base.states=[s0, s1]", "potential.phi=[[0.0, true]]", "potential.phi=[[0.0, null]]",
              "measures=[{transition: [[[0.5, 0.5], [0.5, 0.5]]], initial: [[0.5, 0.5]], "
              "auto: true}]", "run.budget=-5"]


def error_cases(out: Path):
    """(case name, digest row) of every error-path case, in a fixed order."""
    for mode in ("exact", "monte_carlo"):
        config = SINGULAR | {"run": SINGULAR["run"] | {"mode": mode, "samples": 24}}
        yield f"singular scaled_inverse pressure {mode}", _run(out, _write(out, config))
    # The grid's longest words (n = 6, m = 2) are 2^7: exact mode checks the base words
    # first, Monte Carlo draws its base words and checks the fiber words only.
    for mode, over in (("exact", "base"), ("monte_carlo", "fiber")):
        grid = COCYCLE["run"] | {"n_list": [2, 6], "mode": mode, "samples": 24, "budget": 40}
        yield (f"cocycle pressure over the {over} budget",
               _run(out, _write(out, COCYCLE | {"run": grid})))
    yield "lemmas power-lemma cell over the base budget", _run(out, _write(out, LEMMAS))
    product = Path("configs/product_pressure.yaml")
    for override in BAD_SECTIONS:
        yield f"{product} --set {override}", _run(out, product, [override])
    config = yaml.safe_load(product.read_text()) | {"output": 5}
    yield "output: 5", _run(out, _write(out, config), out_flag=False)
    for override in BAD_ARRAYS:
        yield f"{product} --set {override}", _run(out, product, [override])
    golden = Path("configs/golden_mean_vp.yaml")
    yield f"{golden} --set {BAD_MEASURE_SHAPE}", _run(out, golden, [BAD_MEASURE_SHAPE])
    for override in BAD_INPUTS:
        yield f"{product} --set {override}", _run(out, product, [override])
    with mock.patch.dict(os.environ, {"RANDPRESS_BUDGET": "-5"}):
        row = _run(out, product)
    yield f"{product} with RANDPRESS_BUDGET=-5", row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-6"),
                        help="perfbench pool seeds, e.g. 1-6 or 1,3,5 (default 1-6)")
    parser.add_argument("--values", action="store_true",
                        help="also record the numeric leaves of every report.json")
    parser.add_argument("--diff", nargs=2, metavar="DIGEST",
                        help="compare two --values digests instead of running the cases")
    args = parser.parse_args(argv)
    if args.diff:
        before, after = (json.loads(Path(path).read_text()) for path in args.diff)
        json.dump(diff(before, after), sys.stdout, indent=1)
        sys.stdout.write("\n")
        return 0
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    digest = {}
    # Rows arrive one case at a time, so report.json is still the one each row's case wrote.
    for case, row in itertools.chain(cases(OUT, args.seeds), error_cases(OUT)):
        digest[case] = [*row, _report_leaves(OUT)] if args.values else row
    json.dump(digest, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
