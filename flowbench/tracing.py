"""In-memory span tracing of flowvo's layers, installed from outside `src/`.

flowvo modules import names directly (``from .nnops import conv2d``), so a
wrapper must replace the name where each caller looks it up, not only in
the defining module. A new `Tracer` finds every attribute of a loaded
``flowvo.*`` module that is bound to a traced function; `install` rebinds
them all to timing wrappers and `uninstall` puts the originals back. Class
methods (the networks' ``__call__``) are patched on the class.

A span is (name, start, end, parent): the parent is the span open when it
started, so self time is duration minus the children's durations. Spans
stay in memory until `write_csv`.
"""

from __future__ import annotations

import csv
import functools
import os
import sys
import time
from collections import defaultdict

# (span name, module, attribute): the functions whose calls are layer spans.
# Several functions may share one span name (the three warp builders).
FUNCTIONS = (
    ("tensor.backward", "flowvo.tensor", "backward"),
    ("nnops.conv2d", "flowvo.nnops", "conv2d"),
    ("nnops.transposed_conv2d", "flowvo.nnops", "transposed_conv2d"),
    ("nnops.avg_pool2d", "flowvo.nnops", "avg_pool2d"),
    ("nnops.grid_sample_bilinear", "flowvo.nnops", "grid_sample_bilinear"),
    ("geometry.warp_coords", "flowvo.geometry", "rigid_warp_coords_pose"),
    ("geometry.warp_coords", "flowvo.geometry", "stereo_shift_coords"),
    ("geometry.warp_coords", "flowvo.geometry", "flow_warp_coords"),
    ("losses.image_synthesis_loss", "flowvo.losses", "image_synthesis_loss"),
    ("losses.depth_terms", "flowvo.losses", "depth_terms"),
    ("losses.pose_consistency_loss", "flowvo.losses", "pose_consistency_loss"),
    ("networks.save_checkpoint", "flowvo.networks", "save_checkpoint"),
    ("networks.load_checkpoint", "flowvo.networks", "load_checkpoint"),
    ("trainer.window_losses", "flowvo.trainer", "window_losses"),
    ("trainer.stereo_stage_losses", "flowvo.trainer", "stereo_stage_losses"),
    ("trainer.adam_step", "flowvo.trainer", "adam_step"),
    ("trainer.infer_relative_poses", "flowvo.trainer", "infer_relative_poses"),
    ("dataio.read_ppm", "flowvo.dataio", "read_ppm"),
    ("dataio.read_flow_pfm", "flowvo.dataio", "read_flow_pfm"),
    ("dataio.write_ppm", "flowvo.dataio", "write_ppm"),
    ("dataio.write_pfm", "flowvo.dataio", "write_pfm"),
    ("synthscene.render_view", "flowvo.synthscene", "render_view"),
    ("evaluate.kitti_odometry_errors", "flowvo.evaluate", "kitti_odometry_errors"),
    ("evaluate.ate", "flowvo.evaluate", "ate"),
)

# (span name, module, class): networks traced through their __call__.
METHODS = (
    ("networks.DepthNet", "flowvo.networks", "DepthNet"),
    ("networks.FlowPoseNet", "flowvo.networks", "FlowPoseNet"),
    ("networks.MiniFlowNet", "flowvo.networks", "MiniFlowNet"),
    ("networks.TapeNet", "flowvo.networks", "TapeNet"),
)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        # span name -> callback(result), run after the layer's span closes,
        # in a "trace.hook" span, so its cost shows as tracing overhead
        self.on_return = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    # -- recording ------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            hook = tracer.on_return.get(name)
            if hook is not None:
                h = tracer.open("trace.hook")
                hook(result)
                tracer.close(h)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def _build_patches(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "flowvo" or key.startswith("flowvo.")]
        for name, mod_name, attr in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, val in vars(mod).items():
                    if val is orig:
                        self._patches.append((mod, key, orig, wrapped))
        for name, mod_name, cls_name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__call__
            self._patches.append((cls, "__call__", orig, self._wrap(name, orig)))

    def install(self) -> None:
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig, _ in self._patches:
            setattr(owner, key, orig)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def totals(self, spans) -> dict[str, tuple[float, int]]:
        """name -> (inclusive seconds, calls) over the given span indices."""
        acc: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i in spans:
            name, start, end, _ = self.spans[i]
            acc[name][0] += end - start
            acc[name][1] += 1
        return {k: (v[0], v[1]) for k, v in acc.items()}

    def write_csv(self, path: str) -> None:
        """All spans with their self time, then one summary row per name."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self_t = self.self_times()
        summary: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["index", "name", "start_s", "end_s", "parent", "self_ms"])
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                w.writerow([i, name, f"{start - t0:.6f}", f"{end - t0:.6f}", parent,
                            f"{self_t[i] * 1e3:.4f}"])
                summary[name][0] += (end - start) * 1e3
                summary[name][1] += self_t[i] * 1e3
                summary[name][2] += 1
        with open(path.replace(".csv", "_summary.csv"), "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["name", "calls", "inclusive_ms", "self_ms"])
            for name in sorted(summary, key=lambda n: -summary[n][1]):
                incl, self_ms, calls = summary[name]
                w.writerow([name, calls, f"{incl:.3f}", f"{self_ms:.3f}"])
