"""The benchmark workloads: set-up, the timed training loop, output checks.

Every workload renders its scene from the workload seed (and nothing
else), sets up, then trains until a wall-clock deadline. With a tracer,
every other iteration runs with the layer spans installed, so the traced
and untraced halves share host conditions and their difference is the
tracing overhead; a traced run then also runs cold held-out inference with
the checkpoint it trained.
"""

from __future__ import annotations

import filecmp
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from flowvo import dataio, evaluate, networks, synthscene, trainer
from flowvo.geometry import check_rotation
from flowvo.losses import LossConfig
from flowvo.networks import ModelConfig
from flowvo.synthscene import SceneDataset, SceneSpec
from flowvo.trainer import TrainConfig

# Desk acceptance configuration (tests/test_acceptance.py: DESK_*), with a
# short stage 1 so that most of a run is stage 2, where the budget goes.
DESK_LOSS = dict(lambda_pc=0.01)
DESK_TRAIN = dict(total_iters=800, batch_size=2, seq_len=3, checkpoint_every=200, seed=4)
STAGE1_ITERS = 4
MODELS = {
    "train_desk": dict(ifg_mode="fixture", use_tape=True, dropout=0.0),
    "train_flowgen": dict(ifg_mode="trainable", use_ffg=True, use_tape=True, dropout=0.0),
}

# Training cost does not depend on scene length (windows have fixed shape);
# a held-out pass does, and its cold start is amortised over its pairs.
TRAIN_FRAMES = 8
HELDOUT_FRAMES = 40
HELDOUT_SEED_OFFSET = 100_000  # the held-out scene differs from the training one
INFER_PASSES = 4               # traced, and as many untraced
SETUP_REPEATS = 3
MIN_TAIL_BEYOND = 10


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    render_s: list[float] = field(default_factory=list)
    frames: int = 0
    prep_s: float = 0.0            # the warm-up training run, model build included
    stage2_ms: list[float] = field(default_factory=list)   # steady stage-2 iterations
    stage1_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)


# -- shared helpers ------------------------------------------------------------


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def tail(xs):
    """(value, percentile, count): the highest order statistic that still
    has MIN_TAIL_BEYOND samples above it, or None with too few samples."""
    n = len(xs)
    if n <= MIN_TAIL_BEYOND:
        return None
    k = n - MIN_TAIL_BEYOND - 1
    return sorted(xs)[k], 100.0 * (k + 1) / n, n


def _render_repeats(spec: SceneSpec, work: str, out: Outcome, tracer) -> list[str]:
    """Render the scene SETUP_REPEATS times; every copy must be byte-identical."""
    dirs = []
    for r in range(SETUP_REPEATS):
        d = os.path.join(work, f"scene{r}")
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        synthscene.render(spec, d)
        out.render_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
        dirs.append(d)
    out.frames = spec.n_frames
    for d in dirs[1:]:
        out.check("render_bit_identical", _same_tree(dirs[0], d))
    return dirs


def _same_tree(a: str, b: str) -> bool:
    for root, _, files in os.walk(a):
        other = os.path.join(b, os.path.relpath(root, a))
        _, mismatch, errors = filecmp.cmpfiles(root, other, files, shallow=False)
        if mismatch or errors:
            return False
    return True


def count_tape_nodes(loss) -> int:
    """Recorded (non-leaf) tensors reachable from `loss`."""
    seen = set()
    stack = [loss]
    n = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if getattr(t, "_backward", None) is not None:
            n += 1
        stack.extend(getattr(t, "_parents", ()))
    return n


class Deadline:
    """Passed as `train(stop_after=...)`: the loop's `k + 1 >= stop_after`
    falls through to `Deadline.__le__`, which ends stage 2 once the time is
    up and `enough()` holds."""

    def __init__(self, at: float, enough):
        self.at = at
        self.enough = enough

    def __le__(self, _iteration) -> bool:
        return time.perf_counter() >= self.at and self.enough()


class IterationClock:
    """Timestamps each training iteration at its `model.zero_grads()` call,
    and switches tracing on for every other iteration."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.starts: list[float] = []
        self.traced: list[bool] = []
        self.spans: list[int] = []          # iteration span index, or -1
        self.nodes: dict[int, int] = {}     # iteration -> tape nodes
        self._orig = networks.VoModel.zero_grads
        self._open = -1

    def __enter__(self):
        clock = self
        orig = self._orig

        def zero_grads(model):
            clock.tick()
            orig(model)

        networks.VoModel.zero_grads = zero_grads
        return self

    def tick(self) -> None:
        self._close()
        self.starts.append(time.perf_counter())
        on = self.tracer is not None and len(self.starts) % 2 == 0
        self.traced.append(on)
        if self.tracer is not None:
            if on:
                self.tracer.install()
                self._open = self.tracer.open("trainer.iteration")
            else:
                self.tracer.uninstall()
        self.spans.append(self._open)

    def _close(self) -> None:
        if self._open >= 0:
            self.tracer.close(self._open)
            self._open = -1

    def add_nodes(self, result) -> None:
        i = len(self.starts) - 1
        self.nodes[i] = self.nodes.get(i, 0) + count_tape_nodes(result["L_all"])

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self._close()
        if self.tracer is not None:
            self.tracer.uninstall()
        networks.VoModel.zero_grads = self._orig
        return False

    def interval_ms(self, i: int) -> float:
        end = self.starts[i + 1] if i + 1 < len(self.starts) else self.end
        return (end - self.starts[i]) * 1e3


# -- per-layer reduction ----------------------------------------------------------

LAYER_CALLS = (
    "networks.DepthNet", "networks.FlowPoseNet", "networks.MiniFlowNet", "networks.TapeNet",
    "nnops.conv2d", "nnops.transposed_conv2d", "nnops.avg_pool2d",
    "nnops.grid_sample_bilinear", "losses.image_synthesis_loss", "losses.depth_terms",
    "losses.pose_consistency_loss", "geometry.warp_coords", "trainer.adam_step",
    "tensor.backward", "dataio.read_ppm", "dataio.read_flow_pfm",
)
LAYER_MS = LAYER_CALLS + ("trainer.window_losses", "trainer.stereo_stage_losses")
INFER_CALLS = (
    "networks.FlowPoseNet", "networks.MiniFlowNet", "nnops.conv2d", "nnops.transposed_conv2d",
    "nnops.avg_pool2d", "dataio.read_ppm", "dataio.read_flow_pfm",
)
INFER_MS = INFER_CALLS + (
    "networks.load_checkpoint", "trainer.infer_relative_poses",
    "evaluate.kitti_odometry_errors", "evaluate.ate",
)
SETUP_LAYERS = ("synthscene.render_view", "dataio.write_ppm", "dataio.write_pfm")


def _layer_metrics(tracer, op_spans: list[range], n_ops: int, out: Outcome) -> None:
    """Per-op means over the traced operations; setup layers per rendered frame."""
    idx = [i for r in op_spans for i in r]
    tot = tracer.totals(idx)
    for name in LAYER_MS:
        out.layers[f"{name}.ms"] = tot.get(name, (0.0, 0))[0] * 1e3 / max(n_ops, 1)
    for name in LAYER_CALLS:
        out.layers[f"{name}.calls"] = tot.get(name, (0.0, 0))[1] / max(n_ops, 1)
    every = tracer.totals(range(len(tracer.spans)))
    frames = out.frames * len(out.render_s)
    for name in SETUP_LAYERS:
        ms, calls = every.get(name, (0.0, 0))
        out.layers[f"{name}.ms"] = ms * 1e3 / frames
        out.layers[f"{name}.calls"] = calls / frames


def _overhead_pct(traced_ms: list[float], plain_ms: list[float]) -> float:
    return 100.0 * (median(traced_ms) / median(plain_ms) - 1.0)


# -- training workloads ----------------------------------------------------------------


def run_train(name: str, seed: int, seconds: float, work: str, tracer) -> Outcome:
    out = Outcome()
    dirs = _render_repeats(SceneSpec(seed=seed, n_frames=TRAIN_FRAMES), work, out, tracer)
    cfg = TrainConfig(loss=LossConfig(**DESK_LOSS), stage1_iters=STAGE1_ITERS, **DESK_TRAIN)
    mcfg = ModelConfig(**MODELS[name])

    # warm-up: the same run, stopped after its first stage-2 iteration; its
    # metric rows are the reference for the determinism check
    t0 = time.perf_counter()
    warm = trainer.train(SceneDataset(dirs[0]), cfg, mcfg, os.path.join(work, "warm"),
                         stop_after=1)
    out.prep_s = time.perf_counter() - t0

    clock = IterationClock(tracer)
    if tracer is not None:
        tracer.on_return["trainer.window_losses"] = clock.add_nodes
    # the tail needs MIN_TAIL_BEYOND + 1 steady stage-2 samples; the first
    # and last stage-2 intervals are not steady
    deadline = Deadline(time.perf_counter() + seconds,
                        lambda: len(clock.starts) >= STAGE1_ITERS + MIN_TAIL_BEYOND + 3)
    result = None
    with clock:
        try:
            result = trainer.train(SceneDataset(dirs[1]), cfg, mcfg,
                                   os.path.join(work, "run"), stop_after=deadline)
        except Exception as exc:  # a failed iteration is a measured outcome
            out.notes["error"] = f"{type(exc).__name__}: {exc}"
    n = len(clock.starts)
    out.attempted = max(n, 1)

    rows1, rows2 = [], []
    if result is not None:
        rows1 = _read_rows(result.metrics_stage1_path)
        rows2 = _read_rows(result.metrics_path)
        warm1 = _read_rows(warm.metrics_stage1_path)
        warm2 = _read_rows(warm.metrics_path)
        out.check("stage1_ran_in_full", len(rows1) == STAGE1_ITERS)
        out.check("rows_repeat_same_seed", rows1 == warm1 and rows2[:1] == warm2)
        out.notes["final_L_all"] = float(rows2[-1].split(",")[-1]) if rows2 else None
    finite = sum(1 for r in rows1 + rows2
                 if all(math.isfinite(float(v)) for v in r.split(",")))
    out.failed = out.attempted - finite
    out.check("rows_finite", out.failed == 0 and finite == n)

    # intervals: stage 1 is [0, S-1) (the last one holds the stage switch),
    # stage 2 is [S, n-1) (the last one holds the final save)
    out.stage1_ms = [clock.interval_ms(i) for i in range(STAGE1_ITERS - 1)]
    steady = range(STAGE1_ITERS, n - 1)
    plain = [i for i in steady if not clock.traced[i]]
    out.stage2_ms = [clock.interval_ms(i) for i in plain]
    out.check("enough_samples", tail(out.stage2_ms) is not None or tracer is not None)
    if tracer is None or result is None:
        return out

    # saves fall outside steady iterations, so time a few of the final table
    table = networks.load_checkpoint(result.checkpoint_path)
    first = len(tracer.spans)
    tracer.install()
    for _ in range(3):
        networks.save_checkpoint(os.path.join(work, "save_probe.bin"), table)
    tracer.uninstall()
    ms, calls = tracer.totals(range(first, len(tracer.spans)))["networks.save_checkpoint"]
    out.layers["networks.save_checkpoint.ms"] = ms * 1e3 / calls
    out.layers["networks.save_checkpoint.bytes"] = os.path.getsize(result.checkpoint_path)

    traced = [i for i in steady if clock.traced[i]]
    spans = [range(clock.spans[i], _next_span(clock, i, tracer)) for i in traced]
    _layer_metrics(tracer, spans, len(traced), out)
    self_t = tracer.self_times()
    out.layers["trainer.self.ms"] = (
        sum(self_t[clock.spans[i]] for i in traced) * 1e3 / max(len(traced), 1))
    out.layers["tensor.nodes"] = (
        sum(clock.nodes.get(i, 0) for i in traced) / max(len(traced), 1))
    out.check("tape_nodes_counted", out.layers["tensor.nodes"] > 0)
    out.layers["trace.overhead_pct"] = _overhead_pct(
        [clock.interval_ms(i) for i in traced], out.stage2_ms)
    out.notes["traced_ops"] = len(traced)
    _assert_zero_calls(name, out)
    try:
        _infer_phase(name, result.checkpoint_path, seed, work, tracer, out)
    except Exception as exc:  # reported through the checks
        out.check("infer_phase_completes", False)
        out.notes["error"] = f"{type(exc).__name__}: {exc}"
    return out


def _next_span(clock: IterationClock, i: int, tracer) -> int:
    for j in range(i + 1, len(clock.spans)):
        if clock.spans[j] >= 0:
            return clock.spans[j]
    return len(tracer.spans)


def _read_rows(path: str) -> list[str]:
    with open(path) as f:
        return [line.rstrip("\n") for line in f][1:]


# -- held-out inference phase (traced runs) -------------------------------------------


def _cold_pass(ckpt: str, data_dir: str, traj_path: str, fixture: bool):
    """Load, read, infer, write and score one held-out sequence from cold."""
    t0 = time.perf_counter()
    model, _ = trainer.load_model(ckpt)
    ds = SceneDataset(data_dir)
    frames = [ds.left(i) for i in range(ds.n_frames)]
    traj = trainer.infer_trajectory(model, frames,
                                    flow_provider=ds.flow_fwd if fixture else None)
    dataio.write_pose_file(traj_path, traj.poses)
    gt = evaluate.Trajectory(ds.abs_poses)
    errs = evaluate.kitti_odometry_errors(gt, traj)
    ate = evaluate.ate(gt, traj, align="scale")
    ok_eval = all(math.isfinite(v) for v in (errs.t_err_percent, errs.r_err_deg_per_100m, ate))
    return time.perf_counter() - t0, traj, ok_eval


def _trajectory_ok(traj, n_frames: int) -> bool:
    poses = traj.poses
    return (len(poses) == n_frames
            and all(np.all(np.isfinite(p)) for p in poses)
            and np.array_equal(poses[0], np.eye(4))
            and all(check_rotation(p[:3, :3]) for p in poses))


def _infer_phase(name: str, ckpt: str, seed: int, work: str, tracer, out: Outcome) -> None:
    """Cold passes of the trained checkpoint over a held-out scene, every
    other one traced; layer figures are per pair, prefixed "infer."."""
    data = os.path.join(work, "heldout")
    synthscene.render(SceneSpec(seed=seed + HELDOUT_SEED_OFFSET, n_frames=HELDOUT_FRAMES), data)
    traj_path = os.path.join(work, "trajectory.txt")
    fixture = MODELS[name]["ifg_mode"] == "fixture"
    n_pairs = HELDOUT_FRAMES - 1
    _, ref, _ = _cold_pass(ckpt, data, traj_path, fixture)  # warm-up pass
    plain, traced, spans = [], [], []
    for k in range(2 * INFER_PASSES):
        on = k % 2 == 1
        first = len(tracer.spans)
        if on:
            tracer.install()
        try:
            wall, traj, ok_eval = _cold_pass(ckpt, data, traj_path, fixture)
        finally:
            tracer.uninstall()
        good = (_trajectory_ok(traj, HELDOUT_FRAMES)
                and all(np.array_equal(a, b) for a, b in zip(traj.poses, ref.poses)))
        out.check("infer_trajectory_valid_and_repeatable", good)
        out.check("infer_eval_finite", ok_eval)
        out.attempted += n_pairs
        out.failed += 0 if good and ok_eval else n_pairs
        (traced if on else plain).append(wall)
        if on:
            spans.append(range(first, len(tracer.spans)))

    tot = tracer.totals([i for r in spans for i in r])
    pairs = n_pairs * len(traced)
    for layer in INFER_MS:
        out.layers[f"infer.{layer}.ms"] = tot.get(layer, (0.0, 0))[0] * 1e3 / pairs
    for layer in INFER_CALLS:
        out.layers[f"infer.{layer}.calls"] = tot.get(layer, (0.0, 0))[1] / pairs
    out.layers["infer.pairs_per_s"] = n_pairs * len(plain) / sum(plain)
    out.layers["infer.trace_overhead_pct"] = _overhead_pct(traced, plain)
    for layer in INFER_ZERO_CALLS[name]:
        out.check(f"infer_zero_calls:{layer}", layer not in tot)
    for layer in INFER_SOME_CALLS[name]:
        out.check(f"infer_some_calls:{layer}", layer in tot)


# -- zero-call predictions -------------------------------------------------------------

ZERO_CALLS = {
    "train_desk": ("nnops.transposed_conv2d", "networks.MiniFlowNet"),
    "train_flowgen": (),
}
NONZERO_CALLS = {
    "train_desk": ("tensor.backward", "networks.DepthNet", "networks.TapeNet"),
    "train_flowgen": ("nnops.transposed_conv2d", "networks.MiniFlowNet", "tensor.backward"),
}
# inference runs forward only: nothing on the training side may run
_TRAIN_ONLY = ("tensor.backward", "trainer.adam_step", "losses.image_synthesis_loss",
               "losses.depth_terms", "losses.pose_consistency_loss", "networks.DepthNet",
               "networks.TapeNet", "trainer.window_losses", "trainer.stereo_stage_losses")
INFER_ZERO_CALLS = {
    "train_desk": _TRAIN_ONLY + ("nnops.transposed_conv2d", "networks.MiniFlowNet"),
    "train_flowgen": _TRAIN_ONLY + ("dataio.read_flow_pfm",),
}
INFER_SOME_CALLS = {
    "train_desk": ("networks.FlowPoseNet", "dataio.read_flow_pfm"),
    "train_flowgen": ("networks.FlowPoseNet", "networks.MiniFlowNet", "nnops.transposed_conv2d"),
}


def _assert_zero_calls(name: str, out: Outcome) -> None:
    for layer in ZERO_CALLS[name]:
        out.check(f"zero_calls:{layer}", out.layers[f"{layer}.calls"] == 0)
    for layer in NONZERO_CALLS[name]:
        out.check(f"some_calls:{layer}", out.layers[f"{layer}.calls"] > 0)

