"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each public function listed in ``LAYERS`` with a
wrapper, in its defining module and in every ``opineq`` module namespace that
imported it by name; methods are wrapped on their class.  A wrapper records a
span (layer, parent span, start, end) and charges the span's duration minus
its direct children to the layer as self time.  Spans live in memory; the
first traced round's spans are kept for writing out at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# layer -> (module, attribute or "Class.method") for every public entry point
LAYERS = {
    "spectral.eig": [("spectral", "eigendecompose")],
    "spectral.matrix_new": [("spectral", "SymmetricMatrix.__init__")],
    "spectral.loewner": [("spectral", "loewner_compare")],
    "functions.constants": [
        ("functions", "second_derivative_range"),
        ("functions", "K_constant"),
        ("functions", "k_constant"),
        ("functions", "kantorovich_power_constant"),
    ],
    "maps.apply": [
        ("maps", f"{cls}.apply")
        for cls in ("Compression", "VectorState", "NormalizedTrace", "Pinching", "CongruenceMixture")
    ],
    "bounds.context": [("bounds", "build_context")],
    "bounds.chord": [("bounds", "chord_bounds")],
    "bounds.jensen": [
        ("bounds", "jensen_upper_bound"),
        ("bounds", "jensen_converse_bound"),
        ("bounds", "jensen_third_term"),
    ],
    "bounds.ratio": [("bounds", "ratio_sandwich"), ("bounds", "ratio_sandwich_min")],
    "bounds.refined": [("bounds", "refined_sandwich_chain")],
    "bounds.power_chain": [("bounds", "power_function_chain")],
    "bounds.kantorovich": [("bounds", "improved_kantorovich")],
    "perspectives.pair": [
        ("perspectives", "OperatorPair.__init__"),
        ("perspectives", "DensityOperator.__init__"),
    ],
    "perspectives.perspective": [
        ("perspectives", "perspective"),
        ("perspectives", "perspective_chord"),
        ("perspectives", "sandwich_correction"),
        ("perspectives", "perspective_bounds"),
    ],
    "perspectives.commutation": [("perspectives", "map_commutation_bounds")],
    "perspectives.entropy": [
        ("perspectives", name)
        for name in (
            "tsallis_relative_operator_entropy",
            "relative_operator_entropy",
            "tsallis_entropy_bounds",
            "relative_entropy_bounds",
            "von_neumann_entropy",
            "quantum_tsallis_entropy",
            "tsallis_relative_quantum_entropy",
        )
    ],
    "perspectives.trace": [("perspectives", "tsallis_trace_bounds")],
    "perspectives.floor": [
        ("perspectives", "quantum_tsallis_lower_bound"),
        ("perspectives", "von_neumann_lower_bound"),
    ],
    "verifier.generate": [
        ("verifier", name)
        for name in ("random_orthogonal", "random_symmetric_with_spectrum", "random_density",
                     "random_sandwich_pair")
    ],
    "verifier.campaign": [("verifier", "run_campaign")],
    "cli.render": [("cli", "render_json")],
    "cli.csv": [("verifier", "CampaignReport.write_csv")],
    "cli.load": [("cli", "load_matrix_file"), ("cli", "load_vector_file")],
    "cli.main": [("cli", "main")],
}

# exceptions that make a campaign skip a family; counted when they leave a bounds.* call
SKIP_EXCEPTIONS = ("NonPositiveFunction", "NotStrictlyConvex")


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS)
        self.enabled = False
        self.keep_spans = False
        self.self_time = [0.0] * len(self.layers)
        self.calls = [0] * len(self.layers)
        self.skips = 0
        self._stack: list = []  # frames: [layer, function, start, child time, span index]
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def reset_counts(self) -> None:
        self.self_time = [0.0] * len(self.layers)
        self.calls = [0] * len(self.layers)
        self.skips = 0

    def install(self) -> None:
        errors = sys.modules["opineq.errors"]
        skip_types = tuple(getattr(errors, name) for name in SKIP_EXCEPTIONS)
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "opineq" or n.startswith("opineq.")]
        for layer_id, layer in enumerate(self.layers):
            family = layer.startswith("bounds.")
            for module_name, attr in LAYERS[layer]:
                module = sys.modules[f"opineq.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self._wrap(layer_id, original, family, skip_types))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer_id, original, family, skip_types)
                for namespace in namespaces:
                    for name, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, name, wrapper)

    def _wrap(self, layer_id, fn, family, skip_types):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # direct recursion (render_json) stays inside the outer span
            if not tracer.enabled or (stack and stack[-1][1] is fn):
                return fn(*args, **kwargs)
            span = -1
            if tracer.keep_spans:
                span = len(tracer.span_layer)
                tracer.span_layer.append(layer_id)
                tracer.span_parent.append(stack[-1][4] if stack else -1)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            frame = [layer_id, fn, 0.0, 0.0, span]
            stack.append(frame)
            frame[2] = start = clock()
            try:
                return fn(*args, **kwargs)
            except skip_types:
                if family:
                    tracer.skips += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.self_time[layer_id] += duration - frame[3]
                tracer.calls[layer_id] += 1
                if stack:
                    stack[-1][3] += duration
                if span >= 0:
                    tracer.span_start[span] = start
                    tracer.span_end[span] = end

        return wrapper

    def snapshot(self) -> dict:
        """Self seconds and call counts per layer since the last reset."""
        return {
            layer: {"self_s": self.self_time[i], "calls": self.calls[i]}
            for i, layer in enumerate(self.layers)
        } | {"skips": self.skips}

    def write_spans(self, path: str) -> None:
        """Kept spans as CSV: span, parent, layer, start and end in microseconds."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as handle:
            handle.write("span,parent,layer,start_us,end_us\n")
            for i in range(len(self.span_layer)):
                handle.write(
                    f"{i},{self.span_parent[i]},{self.layers[self.span_layer[i]]},"
                    f"{(self.span_start[i] - origin) * 1e6:.3f},{(self.span_end[i] - origin) * 1e6:.3f}\n"
                )
