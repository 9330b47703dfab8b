"""Experiment configuration: YAML key tree -> validated model objects."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from .base import DEFAULT_BUDGET, BaseChain
from .bundle import BundleSFT
from .errors import ConfigError
from .measures import RandomMarkovMeasure, solve_consistent_initial
from .potentials import _NORMS, AdditivePotential, CocyclePotential, ScaledInverseNormPotential

VERBS = ("pressure", "vp-check", "lemmas", "dimension", "convergence", "diagnose")
MODES = ("exact", "monte_carlo")

# Where libyaml is built in, its parser gives the same tree several times faster.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_POTENTIAL_KEYS = {
    "additive": ("kind", "phi"),
    "cocycle": ("kind", "matrices", "norm"),
    "scaled_inverse": ("kind", "matrices", "norm", "t"),
}


def _mapping(tree, path: str) -> dict:
    """A config section: a mapping, or {} when absent; anything else fails, naming its path."""
    if tree is not None and not isinstance(tree, dict):
        raise ConfigError(f"{path}: expected a mapping, got {tree!r}")
    return tree or {}


def _only(tree, keys, path: str) -> None:
    """Reject a section that is not a mapping, and a key of it not among keys, naming its path."""
    for key in _mapping(tree, path.rstrip(".")):
        if key not in keys:
            raise ConfigError(f"unknown config key: {path}{key}")


def _need(tree, key: str, path: str) -> Any:
    if key not in _mapping(tree, path):
        raise ConfigError(f"missing config key: {path}.{key}")
    return tree[key]


def _int(value, path: str, least: int | None = None) -> int:
    """A YAML integer (not a bool), >= least if given; a float or string would be truncated."""
    bound = "" if least is None else f" >= {least}"
    if isinstance(value, bool) or not isinstance(value, int) or (least is not None and value < least):
        raise ConfigError(f"{path}: expected an integer{bound}, got {value!r}")
    return value


def _float(value, path: str) -> float:
    """A YAML integer or float (not a bool); a string such as '1e-8' is not a YAML float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _finite(value, path: str, positive: bool) -> float:
    """A finite YAML number that is > 0 (positive) or >= 0; NaN and inf fail here, not in a solve."""
    x = _float(value, path)
    if not np.isfinite(x) or x < 0.0 or (positive and x == 0.0):
        raise ConfigError(f"{path}: expected a finite number {'>' if positive else '>='} 0, got {value!r}")
    return x


def _int_list(tree: dict, key: str, default: list) -> tuple[int, ...]:
    values = tree.get(key, default)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"run.{key}: expected a nonempty list of integers, got {values!r}")
    ints = tuple(_int(v, f"run.{key}[{i}]", 1) for i, v in enumerate(values))
    if list(ints) != sorted(ints):  # the verbs read the last entry as the largest
        raise ConfigError(f"run.{key}: expected a non-decreasing list, got {values!r}")
    return ints


def _shape(arr: np.ndarray, shape: tuple, path: str) -> None:
    """Raise unless arr has shape; a None entry is the size of arr's first None axis (a square)."""
    free = next((n for n, want in zip(arr.shape, shape) if want is None), None)
    shape = tuple(free if want is None else want for want in shape)
    if arr.shape != shape:
        raise ConfigError(f"{path}: expected shape {shape}, got {arr.shape}")


def _array(spec, path: str, states=None, shape=None, minus_inf: bool = False) -> np.ndarray:
    """The float array of a list of rows of numbers, not bools or None (or, with states, a mapping
    by state name): finite (or -inf, an exact zero weight, with minus_inf), of the given shape;
    errors name path."""
    if isinstance(spec, dict) and states is not None:
        _only(spec, states, f"{path}.")
        try:
            spec = [spec[name] for name in states]
        except KeyError as exc:
            raise ConfigError(f"{path}: missing entry for state {exc.args[0]!r}") from exc
    try:
        arr = np.array(spec, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected numbers in rows of equal length, "
                          f"got {spec!r}") from None
    flat = [spec]
    for _ in range(arr.ndim):  # nested lists of equal length, as the conversion found
        flat = [x for row in flat for x in row]
    if not (np.isfinite(arr).all() and bool not in set(map(type, flat))):  # YAML true reads 1.0
        bad = np.isnan(arr) | (arr == np.inf) | (not minus_inf) & (arr == -np.inf)
        bad = np.flatnonzero(bad.ravel() | [isinstance(x, bool) for x in flat])
        if len(bad):  # named by the first bad entry's index; YAML null reads nan
            raise ConfigError(f"{path}{''.join(f'[{j}]' for j in np.unravel_index(bad[0], arr.shape))}"
                              f": expected a finite number{' or -.inf' if minus_inf else ''}, "
                              f"got {flat[bad[0]]!r}")
    if shape is not None:
        _shape(arr, shape, path)
    return arr


@dataclass(frozen=True)
class RunSettings:
    verb: str
    n_list: tuple[int, ...]
    m_list: tuple[int, ...]
    N: int
    mode: str
    samples: int
    seed: int
    budget: int
    t_max: float
    tol_t: float
    tol_p: float


@dataclass(frozen=True)
class Experiment:
    chain: BaseChain
    bundle: BundleSFT
    potential: object
    measures: tuple[RandomMarkovMeasure, ...]
    run: RunSettings
    output_dir: str
    resolved: dict = field(repr=False, default_factory=dict)


def _names(tree: dict, key: str, path: str, count: int):
    """tree[key] if given: a list of count distinct strings, one name per state or symbol."""
    names = tree.get(key)
    if key in tree and not (isinstance(names, list) and all(isinstance(x, str) for x in names)
                            and len(set(names)) == len(names) == count):
        raise ConfigError(f"{path}: expected a list of {count} distinct strings, got {names!r}")
    return names


def _build_chain(tree: dict) -> BaseChain:
    _only(tree, ("states", "transition"), "base.")
    transition = _array(_need(tree, "transition", "base"), "base.transition", shape=(None, None))
    states = _names(tree, "states", "base.states", len(transition))
    try:
        return BaseChain.from_transition(transition, states=states)
    except Exception as exc:
        raise ConfigError(f"base: {exc}") from exc


def _build_bundle(tree: dict, chain: BaseChain) -> BundleSFT:
    _only(tree, ("alphabet", "allowed", "strict"), "bundle.")
    allowed = _array(_need(tree, "allowed", "bundle"), "bundle.allowed", chain.states,
                     (chain.num_states, None, None))
    alphabet = _names(tree, "alphabet", "bundle.alphabet", allowed.shape[1])
    strict = tree.get("strict", False)
    if not isinstance(strict, bool):
        raise ConfigError(f"bundle.strict: expected true or false, got {strict!r}")
    try:
        return BundleSFT.from_matrices(allowed, alphabet=alphabet, strict=strict)
    except Exception as exc:
        raise ConfigError(f"bundle: {exc}") from exc


def _build_potential(tree: dict, chain: BaseChain, bundle: BundleSFT):
    kind = _need(tree, "kind", "potential")
    if kind not in tuple(_POTENTIAL_KEYS):
        raise ConfigError(f"potential.kind: unknown kind {kind!r}")
    _only(tree, _POTENTIAL_KEYS[kind], "potential.")
    SA = (chain.num_states, bundle.num_symbols)
    if kind == "additive":
        return AdditivePotential(_array(_need(tree, "phi", "potential"), "potential.phi",
                                        chain.states, SA, minus_inf=True))
    B = _array(_need(tree, "matrices", "potential"), "potential.matrices", chain.states)
    _shape(B, SA if B.ndim == 2 else (*SA, None, None), "potential.matrices")
    norm = tree.get("norm", "spectral")
    if norm not in _NORMS:
        raise ConfigError(f"potential.norm: must be one of {_NORMS}, got {norm!r}")
    cocycle = CocyclePotential(B[:, :, None, None] if B.ndim == 2 else B, norm_kind=norm)
    if kind == "cocycle":
        return cocycle
    return ScaledInverseNormPotential(cocycle, _finite(tree.get("t", 0.0), "potential.t", False))


def _build_measures(specs, chain: BaseChain, bundle: BundleSFT) -> tuple[RandomMarkovMeasure, ...]:
    if specs is not None and not isinstance(specs, list):
        raise ConfigError(f"measures: expected a list of mappings, got {specs!r}")
    out, SAA = [], (chain.num_states, bundle.num_symbols, bundle.num_symbols)
    for i, spec in enumerate(specs or []):
        path = f"measures[{i}]"
        _only(spec, ("transition", "initial", "auto"), f"{path}.")
        Q = _array(_need(spec, "transition", path), f"{path}.transition", chain.states, SAA)
        auto = spec.get("auto", False)
        if not isinstance(auto, bool):
            raise ConfigError(f"{path}.auto: expected true or false, got {auto!r}")
        if auto and "initial" in spec:
            raise ConfigError(f"{path}.initial: auto: true solves for it, so it would be ignored")
        pi = (solve_consistent_initial(Q, chain)[0] if auto else
              _array(_need(spec, "initial", path), f"{path}.initial", chain.states, SAA[:2]))
        out.append(RandomMarkovMeasure(initial=pi, transition=Q))
    return tuple(out)


def _build_run(tree: dict) -> RunSettings:
    verb = _need(tree, "verb", "run")
    _only(tree, ("verb", "n_list", "m_list", "N", "mode", "samples", "seed", "budget", "t_max",
                 "tol_t", "tol_p"), "run.")
    if verb not in VERBS:
        raise ConfigError(f"run.verb: must be one of {VERBS}, got {verb!r}")
    if verb in ("vp-check", "lemmas", "diagnose"):
        for key in ("mode", "samples"):
            if key in tree:
                raise ConfigError(f"run.{key}: verb {verb!r} computes exact sums and does not read it")
    mode = tree.get("mode", "exact")
    if mode not in MODES:
        raise ConfigError(f"run.mode: must be one of {MODES}, got {mode!r}")
    n_list = _int_list(tree, "n_list", [8])
    m_list = _int_list(tree, "m_list", [1])
    return RunSettings(
        verb=verb,
        n_list=n_list,
        m_list=m_list,
        N=_int(tree.get("N", n_list[-1]), "run.N", 1),
        mode=mode,
        samples=_int(tree.get("samples", 0), "run.samples", 1 if mode == "monte_carlo" else 0),
        seed=_int(tree.get("seed", 0), "run.seed", 0),
        budget=_int(tree.get("budget", DEFAULT_BUDGET), "run.budget", 1),
        t_max=_finite(tree.get("t_max", 4.0), "run.t_max", positive=True),
        tol_t=_finite(tree.get("tol_t", 1e-8), "run.tol_t", positive=False),
        tol_p=_finite(tree.get("tol_p", 1e-9), "run.tol_p", positive=False),
    )


def apply_overrides(tree: dict, overrides: list) -> dict:
    """Apply flat overrides: --set's path=value text, the value parsed as YAML, or a
    (path, value) pair, the value taken as given."""
    for item in overrides:
        if isinstance(item, str) and "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        path, value = item.split("=", 1) if isinstance(item, str) else item
        keys = path.split(".")
        node = tree
        for key in keys[:-1]:
            if node.get(key) is None:  # a bare `output:` is an empty section, not a value
                node[key] = {}
            node = node[key]
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} does not address a mapping")
        try:
            node[keys[-1]] = yaml.load(value, Loader=_LOADER) if isinstance(item, str) else value
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {item!r}: cannot parse the value: {exc}") from exc
    return tree


def load_experiment(config_path: str, overrides: list | None = None) -> Experiment:
    try:
        with open(config_path) as fh:
            tree = yaml.load(fh, Loader=_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {config_path}: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a mapping")
    tree = apply_overrides(tree, overrides or [])
    _only(tree, ("base", "bundle", "potential", "measures", "run", "output"), "")
    chain = _build_chain(_need(tree, "base", "<root>"))
    bundle = _build_bundle(_need(tree, "bundle", "<root>"), chain)
    potential = _build_potential(_need(tree, "potential", "<root>"), chain, bundle)
    measures = _build_measures(tree.get("measures"), chain, bundle)
    run = _build_run(_need(tree, "run", "<root>"))
    _only(tree.get("output"), ("dir",), "output.")
    output_dir = (tree.get("output") or {}).get("dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output.dir: expected a string, got {output_dir!r}")
    if run.verb == "vp-check" and not measures:
        raise ConfigError("vp-check requires at least one measure in the config")
    if run.verb == "lemmas" and measures and run.N < 3:  # Lemma 3.4 runs at n = min(N, 4), k = 2
        raise ConfigError(f"run.N: lemmas with a measure needs N >= 3, got {run.N}")
    if run.verb == "dimension" and not isinstance(potential, CocyclePotential):
        raise ConfigError("dimension verb requires potential.kind: cocycle")
    return Experiment(
        chain=chain, bundle=bundle, potential=potential, measures=measures,
        run=run, output_dir=output_dir, resolved=tree,
    )
