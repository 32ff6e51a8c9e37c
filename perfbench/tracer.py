"""In-memory spans around calls into the totalcorr modules.

The tracer replaces the attributes that callers look up (a module-level
function in every ``totalcorr`` module that imported it, or a method on its
class) with a wrapper that records one span per call. A span is
``[name, kind, start_ns, end_ns, parent, size]``: ``kind`` is the estimator
kind of the call or of its nearest ancestor that has one, ``parent`` is the
index of the enclosing span (-1 at the top) and ``size`` an optional count
(rows, bytes) taken from the arguments or the result after the clock stops.
Spans stay in memory in ``Tracer.spans`` for the caller to write out once
the pass is over; ``restore`` puts the original attributes back.
"""

from __future__ import annotations

import os
import sys
import time


def _estimator_kind(args):
    return args[0].kind.value


def _rows(args, result):
    return int(args[1].shape[0])


def _file_bytes(args, result):
    return os.path.getsize(args[1])


def _text_bytes(args, result):
    return len(result.encode("utf-8"))


# (span name, defining module, attribute, class or None, kind_of, size_of)
LAYERS = (
    ("cli.main", "totalcorr.cli", "main", None, None, None),
    ("harness.run_experiment", "totalcorr.harness", "run_experiment", None, None, None),
    ("harness.evaluate_metrics", "totalcorr.harness", "evaluate_metrics", None, None, None),
    ("harness.smooth", "totalcorr.harness", "smooth", None, None, None),
    ("harness.persist_trace", "totalcorr.harness", "persist_trace", None, None, _file_bytes),
    ("harness.load_trace", "totalcorr.harness", "load_trace", None, None, None),
    ("harness.persist_metrics", "totalcorr.harness", "persist_metrics", None, None, None),
    ("harness.load_metrics", "totalcorr.harness", "load_metrics", None, None, None),
    ("gaussian.sample", "totalcorr.gaussian", "sample", None, None, None),
    ("decomposition.tc_train_step", "totalcorr.decomposition", "tc_train_step", None, _estimator_kind, None),
    ("decomposition.tc_evaluate", "totalcorr.decomposition", "tc_evaluate", None, _estimator_kind, None),
    ("estimators.train_step", "totalcorr.estimators", "train_step", None, _estimator_kind, None),
    ("estimators.evaluate", "totalcorr.estimators", "evaluate", None, _estimator_kind, None),
    ("nn.adam_step", "totalcorr.nn", "adam_step", None, None, None),
    ("nn.cond_gaussian_logpdf", "totalcorr.nn", "cond_gaussian_logpdf", None, None, None),
    ("nn.cond_gaussian_logpdf_matrix", "totalcorr.nn", "cond_gaussian_logpdf_matrix", None, None, None),
    ("nn.Mlp.forward", "totalcorr.nn", "forward", "Mlp", None, _rows),
    ("nn.Mlp.backward", "totalcorr.nn", "backward", "Mlp", None, None),
    ("svgplot.render_traces", "totalcorr.svgplot", "render_traces", None, None, _text_bytes),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, kind_of=None, size_of=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if kind_of is not None:
                kind = kind_of(args)
            else:
                kind = spans[parent][1] if parent >= 0 else None
            span = [name, kind, 0, 0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if size_of is not None:
                span[5] = size_of(args, result)
            return result

        return traced

    def install(self, layers=LAYERS):
        """Wrap every layer in every loaded ``totalcorr`` module that binds it."""
        for name, module_name, attr, cls_name, kind_of, size_of in layers:
            module = sys.modules[module_name]
            if cls_name is not None:
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, original, self.wrap(original, name, kind_of, size_of))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, kind_of, size_of)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "totalcorr" and getattr(mod, attr, None) is original:
                    self._set(mod, attr, original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous and single-threaded, so children never overlap
    each other and lie inside their parent.
    """
    covered = [0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            covered[span[4]] += span[3] - span[2]
    return [span[3] - span[2] - c for span, c in zip(spans, covered)]
