"""Per-layer spans for randpress, recorded from outside the package.

The tracer replaces each layer's public function with a wrapper that opens a
span (name, start, end, parent span, op id) around the call.  randpress
modules import each other's functions by name (``from .base import ...``),
so a function is replaced in *every* ``randpress`` module that holds it,
not only where it is defined.  Spans stay in memory until :meth:`write`.

A layer a later version of randpress renames or deletes is reported as
absent with 0 calls; only a tracer that could install no wrapper at all
fails.  Every layer runs on the calling thread (the default thread cap of 1),
so no span ever waits on a queue or a thread and no waiting time is recorded.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# <module>.<function> or <module>.<Class>.<method>, relative to randpress.
LAYERS = (
    "cli.run",
    "config.load_experiment",
    "base.enumerate_base_words",
    "base.sample_path",
    "bundle.enumerate_cylinders",
    "potentials.AdditivePotential.eval",
    "potentials.CocyclePotential.eval",
    "potentials.ScaledInverseNormPotential.eval",
    "potentials.check_subadditivity",
    "pressure.pressure_curve",
    "pressure.expected_log_sum",
    "pressure.log_partition_sum",
    "pressure.check_power_lemma",
    "pressure.greedy_maximal_separated",
    "bowen.dimension_root",
    "bowen.pressure_at_t",
    "measures.solve_consistent_initial",
    "measures.validate_measure",
    "measures.fiber_entropy",
    "measures.cylinder_weights",
    "measures.potential_average",
    "measures.f_star_bracket",
    "measures.check_lemma34",
    "varprinciple.vp_gap",
)
# Layers that return words; `words` counts them (a list, or a (words, weights) pair).
WORD_LAYERS = {
    "base.enumerate_base_words": len,
    "bundle.enumerate_cylinders": len,
    "measures.cylinder_weights": lambda result: len(result[0]),
}
OP = "bench.op"
NO_WAIT_NOTE = ("every layer runs on the calling thread (thread cap 1): "
                "no span waits on a queue or a thread, so no waiting time is recorded")


def _admissible_words(chain, length: int) -> int:
    adj = (np.asarray(chain.transition) > 0.0).astype(float)
    ones = np.ones(adj.shape[0])
    return int(round(ones @ np.linalg.matrix_power(adj, length - 1) @ ones))


def _power_lemma_words_checked(args, kwargs) -> int:
    """Base words check_power_lemma(chain, bundle, potential, k, n, m, ...) compares."""
    names = ("chain", "bundle", "potential", "k", "n", "m", "budget", "max_words")
    bound = dict(zip(names, args)) | kwargs
    total = _admissible_words(bound["chain"], bound["k"] * bound["n"] + bound["m"] - 1)
    cap = bound.get("max_words")
    return total if cap is None else min(cap, total)


class Tracer:
    def __init__(self):
        self.names = [OP, *LAYERS]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        # Spans, one tuple each: (span id, name index, start, end, parent id, op id).
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        self._stack: list[list] = []  # open spans: [span id, name index, start, child time]
        self._next_id = 0
        self.op_id = -1
        k = len(self.names)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.errors = [0] * k
        self.words = [0] * k
        self.child_calls: dict[tuple[int, int], int] = {}
        self.child_words: dict[tuple[int, int], int] = {}
        self.power_words_checked = 0

    # -- spans ------------------------------------------------------------------

    def _open(self, idx: int) -> None:
        self._stack.append([self._next_id, idx, time.perf_counter(), 0.0])
        self._next_id += 1

    def _close(self, words: int = 0, error: bool = False) -> None:
        end = time.perf_counter()
        span_id, idx, start, child = self._stack.pop()
        duration = end - start
        self.calls[idx] += 1
        self.self_s[idx] += duration - child
        self.words[idx] += words
        self.errors[idx] += error
        parent_id = -1
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
            key = (parent[1], idx)
            self.child_calls[key] = self.child_calls.get(key, 0) + 1
            self.child_words[key] = self.child_words.get(key, 0) + words
        self.spans.append((span_id, idx, start, end, parent_id, self.op_id))

    def op(self, op_id: int, fn, *args):
        """Run one benchmark op inside a root span."""
        self.op_id = op_id
        self._open(self.index[OP])
        try:
            return fn(*args)
        finally:
            self._close()

    def _wrapper(self, name: str, fn):
        idx = self.index[name]
        count = WORD_LAYERS.get(name)
        checks_words = name == "pressure.check_power_lemma"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if checks_words:
                tracer.power_words_checked += _power_lemma_words_checked(args, kwargs)
            tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(error=True)
                raise
            tracer._close(words=count(result) if count else 0)
            return result

        return wrapper

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer present in the imported randpress package."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "randpress" or key.startswith("randpress."))]
        for name in LAYERS:
            module_name, *attrs = name.split(".")
            try:
                owner = importlib.import_module(f"randpress.{module_name}")
                for attr in attrs[:-1]:
                    owner = getattr(owner, attr)
                original = owner.__dict__[attrs[-1]] if isinstance(owner, type) else getattr(owner, attrs[-1])
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrapper(name, original)
            if isinstance(owner, type):
                self._patch(owner, attrs[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        if not self._patches:
            raise RuntimeError("tracer installed no wrapper: no randpress layer was found")

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def layer_metrics(self, ops: int, time_scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-op averages for every layer (absent layers read 0), plus derived ratios.

        Self times are multiplied by `time_scale`, the factor to the
        benchmark's reference machine speed.
        """
        out: dict[str, tuple[float, str]] = {}
        for name in LAYERS:
            i = self.index[name]
            out[f"{name}.calls"] = (self.calls[i] / ops, "calls/op")
            out[f"{name}.self_s"] = (self.self_s[i] * time_scale / ops, "s/op")
            out[f"{name}.errors"] = (self.errors[i] / ops, "errors/op")
            if name in WORD_LAYERS:
                out[f"{name}.words"] = (self.words[i] / ops, "words/op")
        solve, p_at_t = self.index["bowen.dimension_root"], self.index["bowen.pressure_at_t"]
        evals = self.child_calls.get((solve, p_at_t), 0)
        out["bowen.dimension_root.pressure_evals_per_solve"] = (
            evals / self.calls[solve] if self.calls[solve] else 0.0, "evals/solve")
        lemma, base = self.index["pressure.check_power_lemma"], self.index["base.enumerate_base_words"]
        enumerated = self.child_words.get((lemma, base), 0)
        checked = self.power_words_checked
        out["pressure.check_power_lemma.useful_word_ratio"] = (
            checked / max(checked, enumerated) if checked else 0.0, "ratio")
        return out

    def write(self, path) -> None:
        """Write the spans, in span-id order, as a compressed numpy archive."""
        rows = sorted(self.spans)
        cols = list(zip(*rows)) if rows else [()] * 6
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_id=np.array(cols[0], dtype=np.int64),
            name=np.array(cols[1], dtype=np.int32),
            start=np.array(cols[2], dtype=float),
            end=np.array(cols[3], dtype=float),
            parent=np.array(cols[4], dtype=np.int64),
            op=np.array(cols[5], dtype=np.int64),
            note=np.array(NO_WAIT_NOTE),
        )
