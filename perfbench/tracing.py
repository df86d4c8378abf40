"""Span tracing from outside the program: wrappers around public functions.

``Tracer.install`` replaces each target function at every ``nilframe.*``
module attribute bound to it (modules import public functions by name), and
``uninstall`` puts the originals back.  Spans stay in memory as
[name, start, end, parent, job] and are written out when the run ends.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _measure_name(args, kwargs) -> str:
    threshold = kwargs.get("threshold", args[3] if len(args) > 3 else None)
    return "spectral.measure" if threshold is None else "spectral.sublevel"


def _certificate(tracer, name, result):
    tracer.add(f"{name}.boxes", result.certificate.boxes)
    tracer.peak(f"{name}.depth", result.certificate.depth)


def _window(tracer, name, window):
    tracer.add("windows.pieces", window.piece_count)
    tracer.peak("windows.max_pieces", window.piece_count)


def _gram(tracer, name, report):
    tracer.add("verify.gram_entries", report.entries)


def _ratio(tracer, name, report):
    tracer.peak("verify.tail_fraction", report.tail_fraction)


# (module, function, span name or naming function, result hook)
TARGETS = (
    ("nilframe.cli", "main", "cli.main", None),
    ("nilframe.cli", "run_command", "cli.run_command", None),
    ("nilframe.cli", "canonical_json", "cli.canonical_json", None),
    ("nilframe.config", "parse_config", "config.parse_config", None),
    ("nilframe.algebra", "validate_class", "algebra.validate_class", None),
    ("nilframe.algebra", "jump_indices", "algebra.jump_indices", None),
    ("nilframe.polynomial", "determinant", "polynomial.determinant", None),
    ("nilframe.spectral", "build_matrices", "spectral.build_matrices", None),
    ("nilframe.spectral", "density_polynomial", "spectral.density_polynomial", None),
    ("nilframe.spectral", "pfaffian_identity_check", "spectral.pfaffian_identity_check", None),
    ("nilframe.spectral", "sup_density", "spectral.sup_density", _certificate),
    ("nilframe.spectral", "spectral_measure", _measure_name, _certificate),
    ("nilframe.lattice", "design_params", "lattice.design_params", None),
    ("nilframe.lattice", "check_density_condition", "lattice.conditions", None),
    ("nilframe.lattice", "check_onb_condition", "lattice.conditions", None),
    ("nilframe.lattice", "check_wavelet_discretization", "lattice.conditions", None),
    ("nilframe.lattice", "fiber_lattice", "lattice.fiber_lattice", None),
    ("nilframe.windows", "synthesize_window", "windows.synthesize_window", _window),
    ("nilframe.windows", "build_generator_field", "windows.build_generator_field", None),
    ("nilframe.windows", "field_to_document", "windows.field_to_document", None),
    ("nilframe.verify", "window_tiling_check", "verify.window_tiling_check", None),
    ("nilframe.verify", "fiber_parseval_defect", "verify.fiber_parseval_defect", None),
    ("nilframe.verify", "make_test_field", "verify.make_test_field", None),
    ("nilframe.verify", "frame_energy_ratio", "verify.frame_energy_ratio", _ratio),
    ("nilframe.verify", "gram_orthonormality_check", "verify.gram_orthonormality_check", _gram),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def _wrap(self, fn, name, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            rec = [span, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, span, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "nilframe" or n.startswith("nilframe.")]
        for module_name, attr, name, hook in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _span_self_times(self) -> list[float]:
        """Self seconds of each span, in span order."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def self_times(self, job: int | None = None) -> dict[str, tuple[float, int]]:
        """Per span name: (self seconds summed over calls, call count), over
        all spans or those of one job."""
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for rec, own in zip(self.spans, self._span_self_times()):
            if job is None or rec[4] == job:
                entry = totals[rec[0]]
                entry[0] += own
                entry[1] += 1
        return {k: (v[0], v[1]) for k, v in totals.items()}
