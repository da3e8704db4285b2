"""In-memory call spans around the public entry points of the scatjet modules.

An entry point is wrapped where its callers look it up: a module that ran
``from .forward_scattering import principal_symbol`` holds its own binding,
so that binding is the one patched.  A binding that no longer exists is
recorded as absent and skipped, so deleting a function does not break the
trace.  Spans stay in memory; ``summary()`` reduces them at the end.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
from time import perf_counter

# entry point (layer.function) -> the modules whose binding of it callers use
ENTRY_POINTS = {
    "forward_scattering.principal_symbol": ("scatjet.synthetic",),
    "forward_scattering.singularity_coefficient": ("scatjet.synthetic",),
    "boundary_jets.indicial_root_at": ("scatjet.synthetic", "scatjet.forward_scattering"),
    "boundary_jets.perturbation_coefficients": ("scatjet.synthetic",),
    "spectral_sets.exceptional_set": ("scatjet.synthetic",),
    # layer_strip_driver imports it from scatjet.spectral_sets at call time
    "spectral_sets.is_admissible": ("scatjet.synthetic", "scatjet.spectral_sets"),
    "inversion.recover_sigma_from_symbol": ("scatjet.inversion",),
    "inversion.metric_boundary_recovery": ("scatjet.inversion",),
    "inversion.two_energy_recovery": ("scatjet.inversion",),
    "inversion.first_order_recovery": ("scatjet.inversion",),
    # the benchmark calls it as scatjet.inversion.layer_strip_driver
    "inversion.layer_strip_driver": ("scatjet.inversion",),
}


class Tracer:
    """Records nested spans: ``[name, parent span index, start, end]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([name, self._open[-1] if self._open else None, perf_counter(), None])
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[sid][3] = perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        patched = []
        try:
            for name, modules in ENTRY_POINTS.items():
                attr = name.rsplit(".", 1)[1]
                for mod_name in modules:
                    module = importlib.import_module(mod_name)
                    fn = getattr(module, attr, None)
                    if fn is None:
                        self.absent.append(f"{mod_name}.{attr}")
                        continue
                    setattr(module, attr, self._wrap(name, fn))
                    patched.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(patched):
                setattr(module, attr, fn)

    def summary(self, seconds=lambda start, end: end - start) -> dict[str, tuple[int, float]]:
        """Calls and self seconds (span minus its child spans) per span name.

        ``seconds(start, end)`` turns a span's ends into its duration.
        """
        span_s = [seconds(start, end) for _, _, start, end in self.spans]
        child_s = [0.0] * len(self.spans)
        for sid, (_, parent, _, _) in enumerate(self.spans):
            if parent is not None:
                child_s[parent] += span_s[sid]
        out: dict[str, tuple[int, float]] = {}
        for sid, (name, _, _, _) in enumerate(self.spans):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + span_s[sid] - child_s[sid])
        return out
