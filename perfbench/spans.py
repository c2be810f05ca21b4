"""Layer spans recorded from outside the library.

While a Tracer is active, every module binding of each traced public
function inside the advguard package is replaced by a wrapper that records
a span (layer, parent span, start, end). That covers re-imports such as
`attack.forward` or `detector.entropy_2d`, and calls a module makes to its
own functions through its globals. Leaving the `with` block restores every
original binding.
"""

import sys
from collections import defaultdict
from time import perf_counter

# (layer name, defining module, attribute); a dotted attribute names a method.
LAYERS = (
    ("image.read_pgm_ppm", "advguard.image", "read_pgm_ppm"),
    ("image.write_pgm_ppm", "advguard.image", "write_pgm_ppm"),
    ("image.to_float", "advguard.image", "to_float"),
    ("image.to_bytes", "advguard.image", "to_bytes"),
    ("entropy.entropy_2d", "advguard.entropy", "entropy_2d"),
    ("entropy.joint_histogram", "advguard.entropy", "joint_histogram"),
    ("entropy.neighborhood_average", "advguard.entropy", "neighborhood_average"),
    ("denoise.adaptive_filter", "advguard.denoise", "adaptive_filter"),
    ("denoise.quantize", "advguard.denoise", "quantize"),
    ("denoise.smooth", "advguard.denoise", "smooth"),
    ("denoise.combine", "advguard.denoise", "combine"),
    ("classifier.ModelClassifier.call", "advguard.classifier", "ModelClassifier.__call__"),
    ("classifier.forward", "advguard.classifier", "forward"),
    ("classifier.input_gradient", "advguard.classifier", "input_gradient"),
    ("classifier.train", "advguard.classifier", "train"),
    ("attack.craft", "advguard.attack", "craft"),
    ("attack.build_attack_corpus", "advguard.attack", "build_attack_corpus"),
    ("detector.detect", "advguard.detector", "detect"),
    ("detector.evaluate", "advguard.detector", "evaluate"),
)
LAYER_NAMES = tuple(name for name, _, _ in LAYERS)


class Tracer:
    """Records spans while active; `take()` hands back per-layer totals."""

    def __init__(self):
        self.spans = []  # (layer index, parent span index or -1, start, end)
        self._stack = []
        self._patches = []

    def _wrap(self, index, original):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (index, parent, start, end)

        return traced

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "advguard" or name.startswith("advguard."))]
        for index, (_, module_name, attr) in enumerate(LAYERS):
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None and method in vars(cls):
                    original = vars(cls)[method]
                    self._patches.append((cls, method, original))
                    setattr(cls, method, self._wrap(index, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue  # a later version dropped the function: zero calls
            wrapper = self._wrap(index, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        return False

    def take(self):
        """Per-layer (calls, inclusive s, self s) of the spans so far; clears them."""
        if self._stack:
            raise RuntimeError("take() called inside a traced call")
        child = [0.0] * len(self.spans)
        for index, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, (index, _, start, end) in enumerate(self.spans):
            t = totals[LAYER_NAMES[index]]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[sid]
        self.spans.clear()
        return {name: tuple(totals[name]) if name in totals else (0, 0.0, 0.0) for name in LAYER_NAMES}
