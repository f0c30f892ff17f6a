"""Finite-difference verification of every differentiable primitive.

The numeric side is an independent oracle: central differences on the
raw forward evaluation, never touching the recorded gradients it checks.
"""

from __future__ import annotations

import numpy as np

from . import nnops
from . import tensor as T
from .tensor import Tensor

FD_EPS = 1e-6
REL_TOL = 1e-4


def numeric_gradient(fn, inputs: list[Tensor], index: int, eps: float = FD_EPS,
                     element_indices=None) -> np.ndarray:
    """Central-difference d fn(inputs) / d inputs[index].

    With `element_indices`, only those flat coordinates are probed (the rest
    of the returned array stays zero); used to bound cost on large inputs.
    """
    x = inputs[index].data
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    idxs = range(flat.size) if element_indices is None else element_indices
    with T.no_grad():
        for i in idxs:
            old = flat[i]
            flat[i] = old + eps
            hi = fn(inputs).item()
            flat[i] = old - eps
            lo = fn(inputs).item()
            flat[i] = old
            gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max over elements of |a - n| / max(1, |a|, |n|)."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def check_gradients(fn, inputs: list[Tensor], eps: float = FD_EPS,
                    max_elements: int | None = None, rng=None) -> float:
    """Worst relative error between recorded and finite-difference grads.

    `max_elements` caps how many coordinates per input the FD oracle probes
    (deterministically sampled from `rng`); the analytic gradient is always
    the full recorded one.
    """
    for t in inputs:
        t.requires_grad = True
        t.zero_grad()
    out = fn(inputs)
    out.backward()
    worst = 0.0
    for i, t in enumerate(inputs):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        if max_elements is not None and t.data.size > max_elements:
            if rng is None:
                rng = np.random.default_rng(0)
            idxs = np.sort(rng.choice(t.data.size, size=max_elements, replace=False))
            numeric = numeric_gradient(fn, inputs, i, eps, element_indices=idxs)
            sel = analytic.reshape(-1)[idxs]
            worst = max(worst, relative_error(sel, numeric.reshape(-1)[idxs]))
        else:
            numeric = numeric_gradient(fn, inputs, i, eps)
            worst = max(worst, relative_error(analytic, numeric))
    return worst


def _rand(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _away_from_zero(rng, shape, margin=0.2):
    x = rng.uniform(margin, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    return Tensor(x, requires_grad=True)


def check_op(op_fn, inputs: list[Tensor], rng) -> float:
    """Check grads of sum(weights * op_fn(inputs)) with frozen random weights."""
    with T.no_grad():
        probe = op_fn(inputs)
    w = Tensor(rng.uniform(0.5, 1.5, size=probe.shape))
    return check_gradients(lambda ts: (op_fn(ts) * w).sum(), inputs)


def _primitive_cases(rng):
    """One sampled check per primitive; returns {name: callable -> err}."""
    h, w = 5, 6

    def binary(op, a_fn=_rand, b_fn=_rand):
        a, b = a_fn(rng, (3, 4)), b_fn(rng, (3, 4))
        return check_op(lambda ts: op(ts[0], ts[1]), [a, b], rng)

    def unary(op, x):
        return check_op(lambda ts: op(ts[0]), [x], rng)

    cases = {
        "add": lambda: binary(T.add),
        "sub": lambda: binary(T.sub),
        "mul": lambda: binary(T.mul),
        "div": lambda: binary(T.div, b_fn=lambda r, s: _away_from_zero(r, s, 0.4)),
        "neg": lambda: unary(T.neg, _rand(rng, (3, 4))),
        "exp": lambda: unary(T.exp, _rand(rng, (3, 4))),
        "sqrt": lambda: unary(T.sqrt, _rand(rng, (3, 4), 0.5, 2.0)),
        "abs": lambda: unary(T.abs_, _away_from_zero(rng, (3, 4))),
        "sin": lambda: unary(T.sin, _rand(rng, (3, 4))),
        "cos": lambda: unary(T.cos, _rand(rng, (3, 4))),
        "sigmoid": lambda: unary(T.sigmoid, _rand(rng, (3, 4), -2.0, 2.0)),
        "relu": lambda: unary(T.relu, _away_from_zero(rng, (3, 4))),
        "softmax": lambda: unary(lambda t: T.softmax(t, axis=-1), _rand(rng, (3, 4), -2.0, 2.0)),
        "transpose": lambda: unary(lambda t: T.transpose(t), _rand(rng, (3, 4))),
        "reshape": lambda: unary(lambda t: T.reshape(t, (4, 3)), _rand(rng, (3, 4))),
        "slice": lambda: unary(lambda t: t[1:3, ::2], _rand(rng, (4, 5))),
        "sum": lambda: unary(lambda t: T.sum_(t, axis=0), _rand(rng, (3, 4))),
        "mean": lambda: unary(lambda t: T.mean(t, axis=1), _rand(rng, (3, 4))),
        "layer_norm": lambda: unary(lambda t: nnops.layer_norm(t, axis=-1),
                                    _rand(rng, (3, 6), -2.0, 2.0)),
    }

    def matmul_case():
        a, b = _rand(rng, (3, 4)), _rand(rng, (4, 2))
        return check_op(lambda ts: ts[0] @ ts[1], [a, b], rng)

    cases["matmul"] = matmul_case

    def concat_case():
        a, b = _rand(rng, (2, 3)), _rand(rng, (2, 2))
        return check_op(lambda ts: T.concat([ts[0], ts[1]], axis=1), [a, b], rng)

    cases["concat"] = concat_case

    def dropout_case():
        seed = int(rng.integers(0, 2 ** 31))
        x = _rand(rng, (4, 5))
        return check_op(lambda ts: nnops.dropout(ts[0], 0.4, seed), [x], rng)

    cases["dropout"] = dropout_case

    def fc_case():
        x, wt, b = _rand(rng, (3, 4)), _rand(rng, (4, 2)), _rand(rng, (2,))
        return check_op(lambda ts: nnops.fully_connected(*ts), [x, wt, b], rng)

    cases["fully_connected"] = fc_case

    def windowed(op, *shapes):
        return lambda: check_op(op, [_rand(rng, shape) for shape in shapes], rng)

    def grid_case(lead):
        img = _rand(rng, (*lead, h, w, 2))
        frac = lambda a: np.floor(a) + np.clip(a - np.floor(a), 0.25, 0.75)
        coords = Tensor(frac(rng.uniform(0.2, [w - 1.8, h - 1.8], size=(*lead, 4, 4, 2))),
                        requires_grad=True)
        return check_op(lambda ts: nnops.grid_sample_bilinear(ts[0], ts[1]), [img, coords], rng)

    # every windowed op on one image and on an N = 2 stack; conv2d at stride
    # 1 and 2 takes each of its two backward-data paths
    for lead, tag in (((), ""), ((2,), "_n2")):
        for s in (1, 2):
            cases[f"conv2d_s{s}{tag}"] = windowed(
                lambda ts, s=s: nnops.conv2d(*ts, stride=s, padding=1),
                (*lead, h, w, 2), (3, 3, 2, 3), (3,))
        cases["transposed_conv2d" + tag] = windowed(
            lambda ts: nnops.transposed_conv2d(*ts, stride=2, padding=1),
            (*lead, 3, 4, 3), (3, 3, 3, 2), (2,))
        cases["avg_pool2d" + tag] = windowed(
            lambda ts: nnops.avg_pool2d(ts[0], 3, stride=1), (*lead, 6, 6, 2))
        cases["upsample_nearest2x" + tag] = windowed(
            lambda ts: nnops.upsample_nearest2x(ts[0]), (*lead, 3, 4, 2))
        cases["grid_sample_bilinear" + tag] = lambda lead=lead: grid_case(lead)
    return cases


def run_primitive_suite(seed: int = 0, cases_per_op: int = 20) -> dict[str, float]:
    """Max relative FD error per primitive over `cases_per_op` random draws."""
    worst: dict[str, float] = {}
    for case_idx in range(cases_per_op):
        rng = np.random.default_rng((seed, case_idx))
        for name, runner in _primitive_cases(rng).items():
            err = runner()
            worst[name] = max(worst.get(name, 0.0), err)
    return worst


# -- composed paths: estimator blocks and losses ------------------------------


def _micro_model(seed: int):
    from .networks import ModelConfig, VoModel

    cfg = ModelConfig(image_h=16, image_w=16, d_model=8, n_heads=2, depth_base=2,
                      flow_base=2, tape_base=2, dropout=0.0, ifg_mode="fixture",
                      use_ffg=True)
    return VoModel(cfg, seed=seed)


def _model_cases(rng, seed):
    from . import geometry, losses
    from .networks import attention_head
    from .tensor import Tensor as Tn

    h, w = 16, 16
    cases = {}

    def attention_case():
        q = _rand(rng, (3, 4))
        k = _rand(rng, (3, 4))
        v = _rand(rng, (3, 4))
        return check_op(lambda ts: attention_head(*ts), [q, k, v], rng)

    cases["attention_head"] = attention_case

    def tape_decode_case():
        model = _micro_model(seed)
        emb = _rand(rng, (2, 8))
        extra = [model.params["tape.ln1.g"], model.params["tape.out.w"]]
        for t in extra:
            t.zero_grad()
        return check_op(lambda ts: model.tape.decode(ts[0]), [emb] + extra, rng)

    cases["tape_decode"] = tape_decode_case

    def tape_full_case():
        model = _micro_model(seed)
        group = _rand(rng, (h, w, 4), 0.0, 1.0)
        extra = [model.params["tape.e0.w"], model.params["tape.embed.w"]]
        with T.no_grad():
            probe = model.tape([group, group * 0.5])
        wgt = Tn(rng.uniform(0.5, 1.5, size=probe.shape))
        return check_gradients(
            lambda ts: (model.tape([ts[0], ts[0] * 0.5]) * wgt).sum(),
            [group] + extra, max_elements=48, rng=rng)

    cases["tape_pipeline"] = tape_full_case

    def f2f_case():
        model = _micro_model(seed)
        img_a = Tn(rng.random((h, w, 3)))
        img_b = Tn(rng.random((h, w, 3)))
        flow = _rand(rng, (h, w, 2))
        extra = [model.params["f2f.e0.w"], model.params["f2f.rot2.b"],
                 model.params["f2f.fh0.w"]]

        def run(ts):
            out = model.flowpose(img_a, img_b, init_flow=ts[0])
            return (out.pose * Tn(rng_w_pose)).sum() + (out.flows[0] * Tn(rng_w_flow)).sum()

        rng_w_pose = rng.uniform(0.5, 1.5, size=6)
        rng_w_flow = rng.uniform(0.5, 1.5, size=(h, w, 2))
        return check_gradients(run, [flow] + extra, max_elements=48, rng=rng)

    cases["flow_pose_pipeline"] = f2f_case

    def depthnet_case():
        model = _micro_model(seed)
        img = _rand(rng, (h, w, 3), 0.0, 1.0)
        extra = [model.params["depth.e0.w"], model.params["depth.h0.b"]]

        def run(ts):
            maps = model.depth(ts[0])
            return maps[0].mean() + maps[3].mean()

        return check_gradients(run, [img] + extra, max_elements=48, rng=rng)

    cases["depthnet"] = depthnet_case

    def warp_pose_case():
        rig = geometry.make_rig(10.0, 10.0, 3.5, 3.5, 8, 8, 0.3)
        depth = _rand(rng, (8, 8), 4.0, 6.0)
        pose = Tensor(np.concatenate([rng.uniform(-0.05, 0.05, 3),
                                      rng.uniform(-0.2, 0.2, 3)]), requires_grad=True)

        def run(ts):
            coords, _ = geometry.rigid_warp_coords_pose(ts[0], ts[1], rig)
            return (coords * Tn(wgt)).sum()

        wgt = rng.uniform(0.5, 1.5, size=(8, 8, 2))
        return check_gradients(run, [depth, pose])

    cases["rigid_warp_coords"] = warp_pose_case

    # one image, and an N = 2 stack whose masks differ, the last eroding to one pixel
    for lead, tag in (((), ""), ((2,), "_n2")):
        def synthesis_loss_case(lead=lead):
            mask = rng.random((*lead, 8, 8)) > 0.05
            mask[..., 2:6, 2:6] = True  # keep an interior region valid after erosion
            if lead:
                mask[-1] = False
                mask[-1, 3:6, 2:5] = True
            return check_op(lambda ts: losses.image_synthesis_loss(*ts, mask),
                            [_rand(rng, (*lead, 8, 8, 3), 0.1, 0.9) for _ in range(2)], rng)

        cases["image_synthesis_loss" + tag] = synthesis_loss_case
        cases["ssim" + tag] = lambda lead=lead: check_op(lambda ts: losses.ssim(*ts), [
            _rand(rng, (*lead, 7, 7, 2), 0.1, 0.9) for _ in range(2)], rng)

    def pose_consistency_case():
        a = _rand(rng, (2, 6), -0.3, 0.3)
        b = _rand(rng, (2, 6), -0.3, 0.3)
        return check_gradients(lambda ts: losses.pose_consistency_loss(ts[0], ts[1]),
                               [a, b])

    cases["pose_consistency_loss"] = pose_consistency_case

    def depth_terms_case():
        rig = geometry.make_rig(10.0, 10.0, 3.5, 3.5, 8, 8, 0.3)
        idl = _rand(rng, (8, 8), 0.1, 0.3)
        idr = _rand(rng, (8, 8), 0.1, 0.3)
        img_l = Tn(rng.random((8, 8, 3)))
        img_r = Tn(rng.random((8, 8, 3)))

        def run(ts):
            sm, lr_, reg = losses.depth_terms(ts[0], ts[1], img_l, img_r, rig)
            return sm + lr_ + reg

        return check_gradients(run, [idl, idr])

    cases["depth_terms"] = depth_terms_case

    def total_loss_case():
        cfg = losses.LossConfig()
        parts = [_rand(rng, (), 0.0, 1.0) for _ in range(5)]
        return check_gradients(lambda ts: losses.total_loss(*ts, cfg), parts)

    cases["total_loss"] = total_loss_case
    return cases


def run_model_suite(seed: int = 0, cases_per_op: int = 20) -> dict[str, float]:
    """FD checks through the estimator blocks, the warp, and every loss."""
    worst: dict[str, float] = {}
    for case_idx in range(cases_per_op):
        rng = np.random.default_rng((seed, 1000 + case_idx))
        for name, runner in _model_cases(rng, seed + case_idx).items():
            err = runner()
            worst[name] = max(worst.get(name, 0.0), err)
    return worst


def run_full_suite(seed: int = 0, cases_per_op: int = 20) -> dict[str, float]:
    out = run_primitive_suite(seed, cases_per_op)
    out.update(run_model_suite(seed, cases_per_op))
    return out
