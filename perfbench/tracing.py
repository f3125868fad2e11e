"""Spans around partfusion's public functions, recorded from outside the program.

Each traced function is replaced, for the duration of ``traced()``, at the
module attribute its caller looks it up through (``partfusion.cli.learn_weights``
is the name ``cmd_learn_weights`` calls, ``partfusion.protocols.train_multiclass``
the name ``_train_part_models`` calls). A span records its name, start, end,
the span open when it began (its parent) and a few counts read from the
call's arguments or result. Spans stay in memory until ``layer_metrics``
sums them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import tracemalloc
from typing import Callable, Iterator
from unittest import mock

import numpy as np


def _rows(args, kwargs, result) -> dict:
    history = result.objective_history
    rolled_back = sum(int(np.sum(b == a)) for a, b in zip(history, history[1:]))
    return {"rows": int(np.asarray(args[0]).shape[0]), "rolled_back": rolled_back}


def _matched(args, kwargs, result) -> dict:
    return {"detections": len(args[1]), "matched": len(result.pairs)}


def _pairs(args, kwargs, result) -> dict:
    return {"pairs": result[1].n_pairs}


# (module, attribute, span name, counts taken from the call)
TRACED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("partfusion.cli", "generate", "synth.generate", None),
    ("partfusion.cli", "write_synth", "synth.write", None),
    ("partfusion.cli", "load_index", "data.load_index", None),
    ("partfusion.cli", "read_features", "data.read_features", None),
    ("partfusion.cli", "read_prob_table", "data.read_prob_table", None),
    ("partfusion.cli", "match_detections", "matching.match_detections", _matched),
    ("partfusion.matching", "linear_sum_assignment", "matching.lsa", None),
    ("partfusion.cli", "learn_weights", "fusion.learn_weights", _pairs),
    ("partfusion.fusion", "train_binary", "svm.train_binary", _rows),
    ("partfusion.protocols", "train_multiclass", "svm.train_multiclass", _rows),
    ("partfusion.protocols", "fill_sparsity_rows", "fusion.fill_sparsity_rows", None),
    ("partfusion.protocols", "fuse_matrix", "fusion.fuse_matrix", None),
    ("partfusion.cli", "half_split_training", "protocols.half_split_training", None),
    ("partfusion.cli", "eval_recognition", "protocols.eval_recognition", None),
    ("partfusion.cli", "eval_ablation", "protocols.eval_ablation", None),
    ("partfusion.cli", "eval_faces_split", "protocols.eval_faces_split", None),
    ("partfusion.cli", "eval_oneshot", "protocols.eval_oneshot", None),
    ("partfusion.cli", "run_retrieval_protocol", "protocols.run_retrieval_protocol", None),
    ("partfusion.protocols", "eval_retrieval", "protocols.eval_retrieval", None),
)

# Spans whose call also records its peak traced Python/numpy allocation.
PEAK_MEMORY = {"protocols.eval_retrieval"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, counts: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            if name in PEAK_MEMORY:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if name in PEAK_MEMORY:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._open.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def traced(self) -> Iterator["Tracer"]:
        """Install every span of ``TRACED``; the originals return on exit."""
        with contextlib.ExitStack() as stack:
            for module_name, attr, name, counts in TRACED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                stack.enter_context(mock.patch.object(module, attr, self.wrap(name, original, counts)))
            yield self

    def within(self, span: dict, ancestor: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == ancestor:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: seconds and calls per span name, plus the recorded counts."""
        seconds = {name: 0.0 for _, _, name, _ in TRACED}
        calls = {name: 0 for _, _, name, _ in TRACED}
        for s in self.spans:
            seconds[s["name"]] += s["end"] - s["start"]
            calls[s["name"]] += 1

        def total(name: str, key: str) -> int:
            return sum(s.get(key, 0) for s in self.spans if s["name"] == name)

        detections = total("matching.match_detections", "detections")
        metrics = {f"{name}_s": value for name, value in seconds.items()}
        metrics.update(
            {
                "matching.photos": calls["matching.match_detections"],
                "matching.lsa_calls": calls["matching.lsa"],
                "matching.matched_per_detection": (
                    total("matching.match_detections", "matched") / detections if detections else 0.0
                ),
                "svm.train_binary_calls": calls["svm.train_binary"],
                "svm.train_binary_rows": total("svm.train_binary", "rows"),
                "svm.train_multiclass_calls": calls["svm.train_multiclass"],
                "svm.train_multiclass_rows": total("svm.train_multiclass", "rows"),
                "svm.rolled_back_epochs": total("svm.train_binary", "rolled_back")
                + total("svm.train_multiclass", "rolled_back"),
                "fusion.pairs": total("fusion.learn_weights", "pairs"),
                "fusion.fill_sparsity_rows_calls": calls["fusion.fill_sparsity_rows"],
                "protocols.eval_ablation_models": sum(
                    1
                    for s in self.spans
                    if s["name"] == "svm.train_multiclass" and self.within(s, "protocols.eval_ablation")
                ),
                "protocols.eval_retrieval_peak_mb": max(
                    (s["peak_bytes"] / 2**20 for s in self.spans if "peak_bytes" in s), default=0.0
                ),
            }
        )
        return metrics
