"""Span tracer for the benchmark's traced passes.

The tracer wraps the public functions of each twinphase layer from
outside the package: a function is replaced at every module binding that
holds it (``metrics`` imports ``tie_retrieve``, ``expected_counts``,
``imaging_blur`` and friends by name, so both bindings are wrapped), and
a method is replaced on its class.  Each call records one span
``(id, parent id, layer, start, end, pass)``; spans stay in memory and
are written out when the run ends.  Counts are read from the objects
the calls return, so they are exact.

A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

# Grid sides the workloads solve at: 513 and 171 (pipeline_513, bin 1
# and 3), 220 down to 18 (scans_220 at bins 1, 3, 6, 12).
SOLVE_SIDES = (513, 220, 171, 73, 36, 18)


def _sample_layer(args, kwargs):
    dz = kwargs["dz"] if "dz" in kwargs else args[3]
    return "twinbeam.sample_focus" if dz == 0.0 else "twinbeam.sample_defocus"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _side_bucket(field):
    side = max(field.width, field.height)
    return str(side) if side in SOLVE_SIDES else "other"


def _observe_sample(tracer, args, kwargs, frame, seconds):
    tracer.count["sample.px"] += frame.n_s.width * frame.n_s.height
    tracer.count["sample.s"] += seconds
    tracer.spills.append(frame.spill)


def _observe_tie(tracer, args, kwargs, phase, seconds):
    field = phase.values
    tracer.count["retrieval.tie_retrieve.solves_" + _side_bucket(field)] += 1
    tracer.count["tie.px"] += field.width * field.height
    tracer.count["tie.s"] += seconds


def _observe_poisson(tracer, args, kwargs, field, seconds):
    tracer.count["retrieval.poisson_solve_dirichlet.solves_" + _side_bucket(field)] += 1


def _observe_write_qpf(tracer, args, kwargs, result, seconds):
    tracer.count["qpf.write_qpf.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _observe_read_qpf(tracer, args, kwargs, result, seconds):
    tracer.count["qpf.read_qpf.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _observe_manifest(tracer, args, kwargs, result, seconds):
    outputs = _arg(args, kwargs, 3, "outputs")
    tracer.count["cli.write_manifest.bytes_hashed"] += sum(
        os.path.getsize(p) for p in outputs
    )


def _observe_stack(tracer, args, kwargs, stack, seconds):
    tracer.count["optics.aliasing_warnings"] += int(stack.aliasing_warning)


def _observe_esf(tracer, args, kwargs, fit, seconds):
    tracer.count["metrics.esf_fit.failed"] += int(not fit.ok)


# (module, attribute, layer name or per-call namer, observer).  An
# attribute "Class.method" is replaced on the class itself.
TARGETS = (
    ("twinphase.twinbeam", "sample_twin_frame", _sample_layer, _observe_sample),
    ("twinphase.twinbeam", "expected_counts", "twinbeam.expected_counts", None),
    ("twinphase.twinbeam", "measure_nrf", "twinbeam.measure_nrf", None),
    ("twinphase.retrieval", "phase_from_twin_frames", "retrieval.phase_from_twin_frames", None),
    ("twinphase.retrieval", "estimate_transmittance", "retrieval.estimate_transmittance", None),
    ("twinphase.retrieval", "tie_retrieve", "retrieval.tie_retrieve", _observe_tie),
    ("twinphase.retrieval", "poisson_solve_dirichlet", "retrieval.poisson_solve_dirichlet", _observe_poisson),
    ("twinphase.optics", "defocus_stack", "optics.defocus_stack", _observe_stack),
    ("twinphase.optics", "angular_spectrum_propagate", "optics.angular_spectrum_propagate", None),
    ("twinphase.optics", "imaging_blur", "optics.imaging_blur", None),
    ("twinphase.metrics", "esf_fit", "metrics.esf_fit", _observe_esf),
    ("twinphase.metrics", "step_heights", "metrics.step_heights", None),
    ("twinphase.qpf", "write_qpf", "qpf.write_qpf", _observe_write_qpf),
    ("twinphase.qpf", "read_qpf", "qpf.read_qpf", _observe_read_qpf),
    ("twinphase.cli", "write_manifest", "cli.write_manifest", _observe_manifest),
    ("twinphase.core", "ScalarField2D.__post_init__", "core.ScalarField2D", None),
)

LAYERS = (
    "twinbeam.sample_defocus",
    "twinbeam.sample_focus",
    "twinbeam.expected_counts",
    "twinbeam.measure_nrf",
    "retrieval.phase_from_twin_frames",
    "retrieval.estimate_transmittance",
    "retrieval.tie_retrieve",
    "retrieval.poisson_solve_dirichlet",
    "optics.defocus_stack",
    "optics.angular_spectrum_propagate",
    "optics.imaging_blur",
    "metrics.esf_fit",
    "metrics.step_heights",
    "qpf.write_qpf",
    "qpf.read_qpf",
    "cli.write_manifest",
    "core.ScalarField2D",
)

# Layers called often enough in some workload for a latency distribution.
HOT = (
    "twinbeam.sample_defocus",
    "twinbeam.sample_focus",
    "twinbeam.measure_nrf",
    "retrieval.phase_from_twin_frames",
    "retrieval.tie_retrieve",
    "retrieval.poisson_solve_dirichlet",
    "optics.angular_spectrum_propagate",
    "optics.imaging_blur",
    "metrics.esf_fit",
    "qpf.write_qpf",
    "qpf.read_qpf",
    "core.ScalarField2D",
)

# Exact per-pass counts taken from returned objects, with their units.
COUNTS = (
    ("optics.aliasing_warnings", "count"),
    ("metrics.esf_fit.failed", "count"),
    ("qpf.write_qpf.bytes", "B"),
    ("qpf.read_qpf.bytes", "B"),
    ("cli.write_manifest.bytes_hashed", "B"),
) + tuple(
    (f"retrieval.{layer}.solves_{side}", "count")
    for layer in ("tie_retrieve", "poisson_solve_dirichlet")
    for side in SOLVE_SIDES + ("other",)
)


def tail(durations):
    """The highest order statistic with at least ten calls beyond it.

    That is the 11th-largest duration.  Below 21 calls it would fall
    under the median, so the largest duration is returned instead.
    """
    ordered = sorted(durations)
    return ordered[-11] if len(ordered) >= 21 else ordered[-1]


def per_layer_names():
    """(name, unit) of every metric ``Tracer.metrics`` reports."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
        if layer in HOT:
            names += [(f"{layer}.p50_ms", "ms"), (f"{layer}.tail_ms", "ms")]
    names += [
        ("twinbeam.sample.mpix_per_s", "Mpx/s"),
        ("twinbeam.kept_frac", "ratio"),
        ("retrieval.tie_retrieve.mpix_per_s", "Mpx/s"),
    ]
    return names + list(COUNTS)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.count = defaultdict(float)
        self.spills = []
        self.pass_index = 0
        self._stack = []
        self._next_id = 1
        self._restore = []

    def _wrap(self, fn, layer, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end, self.pass_index))
            if observe is not None:
                observe(self, args, kwargs, result, end - start)
            return result

        return traced

    def install(self):
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "twinphase" or name.startswith("twinphase."))
        ]
        for module_name, attr, layer, observe in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                wrapper = self._wrap(cls.__dict__[method], layer, observe)
                self._restore.append((cls, method, cls.__dict__[method]))
                setattr(cls, method, wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, layer, observe)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def metrics(self, passes):
        """Per-pass metrics over the traced passes ``range(passes)``."""
        child = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent:
                child[parent] += end - start
        self_by_pass = defaultdict(lambda: [0.0] * passes)
        durations = defaultdict(list)
        for span_id, _, name, start, end, index in self.spans:
            self_by_pass[name][index] += end - start - child[span_id]
            durations[name].append(end - start)

        out = {}
        for layer in LAYERS:
            d = durations.get(layer, [])
            out[f"{layer}.calls"] = len(d) / passes
            out[f"{layer}.self_s"] = statistics.median(self_by_pass[layer])
            if layer in HOT:
                out[f"{layer}.p50_ms"] = 1e3 * statistics.median(d) if d else 0.0
                out[f"{layer}.tail_ms"] = 1e3 * tail(d) if d else 0.0
        c = self.count
        out["twinbeam.sample.mpix_per_s"] = (
            c["sample.px"] / c["sample.s"] / 1e6 if c["sample.s"] else 0.0
        )
        out["twinbeam.kept_frac"] = (
            1.0 - statistics.fmean(self.spills) if self.spills else 0.0
        )
        out["retrieval.tie_retrieve.mpix_per_s"] = (
            c["tie.px"] / c["tie.s"] / 1e6 if c["tie.s"] else 0.0
        )
        for name, _ in COUNTS:
            out[name] = c[name] / passes
        return out

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, index in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": name,
                    "start": start, "end": end, "pass": index,
                }) + "\n")
