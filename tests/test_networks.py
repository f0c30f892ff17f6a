import os

import numpy as np
import pytest

from flowvo import networks as nets
from flowvo import tensor as T
from flowvo.tensor import ContractError, ShapeError, Tensor

MICRO = dict(image_h=16, image_w=32, d_model=16, n_heads=2, depth_base=2,
             flow_base=2, tape_base=2, dropout=0.1)


def micro_model(seed=0, **kw):
    return nets.VoModel(nets.ModelConfig(**{**MICRO, **kw}), seed=seed)


def random_group(rng, h=16, w=32):
    return Tensor(rng.random((h, w, 4)))


# -- attention ------------------------------------------------------------


def test_attention_single_key_returns_value_row():
    rng = np.random.default_rng(0)
    q = Tensor(rng.random((4, 3)))
    k = Tensor(rng.random((1, 3)))
    v = Tensor(rng.random((1, 5)))
    out = nets.attention_head(q, k, v)
    np.testing.assert_allclose(out.data, np.tile(v.data, (4, 1)), atol=1e-15)


def test_attention_zero_query_averages_values():
    rng = np.random.default_rng(1)
    k = Tensor(rng.random((5, 3)))
    v = Tensor(rng.random((5, 2)))
    out = nets.attention_head(Tensor(np.zeros((2, 3))), k, v)
    np.testing.assert_allclose(out.data, np.tile(v.data.mean(0), (2, 1)), atol=1e-12)


def test_attention_matches_direct_formula():
    rng = np.random.default_rng(2)
    q, k, v = (rng.random((2, 2)) for _ in range(3))
    got = nets.attention_head(Tensor(q), Tensor(k), Tensor(v)).data
    logits = q @ k.T / np.sqrt(2.0)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    sm = e / e.sum(axis=1, keepdims=True)
    assert np.abs(got - sm @ v).max() <= 1e-12


def test_attention_shape_contracts():
    with pytest.raises(ShapeError):
        nets.attention_head(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))),
                            Tensor(np.zeros((2, 2))))
    with pytest.raises(ShapeError):
        nets.attention_head(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))),
                            Tensor(np.zeros((3, 2))))


def test_attention_config_invariants():
    cfg = nets.AttentionConfig(d_model=64, n_heads=2)
    assert cfg.d_k == cfg.d_v == 32
    with pytest.raises(ContractError):
        nets.AttentionConfig(d_model=10, n_heads=3)


# -- tape ------------------------------------------------------------------


def test_tape_embedding_shape_any_spatial_size():
    model = micro_model()
    rng = np.random.default_rng(3)
    for h, w in ((16, 32), (32, 48)):
        groups = [Tensor(rng.random((h, w, 4))) for _ in range(2)]
        emb = model.tape.encode(groups)
        assert emb.shape == (2, model.cfg.d_model)


def test_tape_position_encoding_distinguishes_identical_groups():
    model = micro_model()
    rng = np.random.default_rng(4)
    g = random_group(rng)
    twin = Tensor(g.data.copy())
    no_pe = model.tape.encode([g, twin], position_encoding=False).data
    np.testing.assert_array_equal(no_pe[0], no_pe[1])
    with_pe = model.tape.encode([g, twin], position_encoding=True).data
    assert not np.array_equal(with_pe[0], with_pe[1])


def test_tape_zero_groups_bias_response_deterministic():
    model = micro_model()
    zero = [Tensor(np.zeros((16, 32, 4))) for _ in range(2)]
    a = model.tape(zero, train_mode=False).data
    b = model.tape(zero, train_mode=False).data
    np.testing.assert_array_equal(a, b)


def test_tape_output_shape_and_empty_error():
    model = micro_model()
    rng = np.random.default_rng(5)
    out = model.tape([random_group(rng), random_group(rng)])
    assert out.shape == (2, 6)
    with pytest.raises(ContractError):
        model.tape.encode([])


def test_tape_permutation_equivariant_bit_exact_without_pe():
    model = micro_model(dropout=0.0)
    rng = np.random.default_rng(6)
    g1, g2 = random_group(rng), random_group(rng)
    fwd = model.tape([g1, g2], train_mode=False, position_encoding=False).data
    rev = model.tape([g2, g1], train_mode=False, position_encoding=False).data
    np.testing.assert_array_equal(fwd, rev[::-1])


def test_tape_unmasked_attention_mixes_positions():
    # with the bidirectional window, changing the later group changes the
    # earlier output row (no causal mask by design)
    model = micro_model(dropout=0.0)
    rng = np.random.default_rng(7)
    g1, g2, g3 = (random_group(rng) for _ in range(3))
    out_a = model.tape([g1, g2], train_mode=False).data
    out_b = model.tape([g1, g3], train_mode=False).data
    assert not np.allclose(out_a[0], out_b[0])


def test_head_concat_width_is_d_model():
    model = micro_model()
    rng = np.random.default_rng(8)
    emb = Tensor(rng.random((2, model.cfg.d_model)))
    heads = [nets.attention_head(emb @ model.tape.wq[i], emb @ model.tape.wk[i],
                                 emb @ model.tape.wv[i])
             for i in range(model.cfg.n_heads)]
    cat = T.concat(heads, axis=1)
    assert cat.shape[1] == model.cfg.n_heads * model.tape.attn.d_v == model.cfg.d_model


def test_tape_dropout_seeded_reproducible():
    model = micro_model()
    rng = np.random.default_rng(9)
    groups = [random_group(rng), random_group(rng)]
    a = model.tape(groups, train_mode=True, seeds=nets.SeedStream(5)).data
    b = model.tape(groups, train_mode=True, seeds=nets.SeedStream(5)).data
    c = model.tape(groups, train_mode=True, seeds=nets.SeedStream(6)).data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_make_tape_group_shape_contract():
    rng = np.random.default_rng(10)
    d1 = Tensor(rng.random((8, 8)))
    d2 = Tensor(rng.random((8, 8)))
    flow = Tensor(rng.random((8, 8, 2)))
    assert nets.make_tape_group(d1, d2, flow).shape == (8, 8, 4)
    with pytest.raises(ShapeError):
        nets.make_tape_group(d1, Tensor(rng.random((4, 8))), flow)


# -- depth net ----------------------------------------------------------------


def test_depthnet_scales_and_range():
    model = micro_model()
    rng = np.random.default_rng(11)
    maps = model.depth(Tensor(rng.random((16, 32, 3))))
    assert [m.shape for m in maps] == [(16, 32, 2), (8, 16, 2), (4, 8, 2), (2, 4, 2)]
    for m in maps:
        assert m.data.min() >= 1.0 / model.cfg.max_depth
        assert m.data.max() <= 1.0 / model.cfg.min_depth


def test_depthnet_rejects_bad_dims():
    model = micro_model()
    with pytest.raises(ContractError):
        model.depth(Tensor(np.zeros((15, 32, 3))))


# -- flow/pose net ---------------------------------------------------------------


def test_flowpose_output_shapes_fixture_mode():
    model = micro_model(ifg_mode="fixture", use_ffg=True)
    rng = np.random.default_rng(12)
    img_a, img_b = Tensor(rng.random((16, 32, 3))), Tensor(rng.random((16, 32, 3)))
    out = model.flowpose(img_a, img_b, init_flow=Tensor(rng.random((16, 32, 2))))
    assert out.pose.shape == (6,)
    assert [f.shape for f in out.flows] == [(16, 32, 2), (8, 16, 2), (4, 8, 2), (2, 4, 2)]


def test_flowpose_fixture_requires_flow():
    model = micro_model(ifg_mode="fixture")
    rng = np.random.default_rng(13)
    img = Tensor(rng.random((16, 32, 3)))
    with pytest.raises(ContractError):
        model.flowpose(img, img)


def test_flowpose_none_mode_consumes_images():
    model = micro_model(ifg_mode="none")
    rng = np.random.default_rng(14)
    img_a, img_b = Tensor(rng.random((16, 32, 3))), Tensor(rng.random((16, 32, 3)))
    out = model.flowpose(img_a, img_b)
    assert out.pose.shape == (6,)
    assert out.flows is None and out.initial_flow is None


def test_gradients_reach_ifg_through_encoder():
    model = micro_model(ifg_mode="trainable")
    rng = np.random.default_rng(15)
    img_a, img_b = Tensor(rng.random((16, 32, 3))), Tensor(rng.random((16, 32, 3)))
    out = model.flowpose(img_a, img_b)
    out.pose.sum().backward()
    ifg_grads = [p.grad for name, p in model.params.items() if name.startswith("ifg.")]
    assert all(g is not None for g in ifg_grads)
    assert any(np.abs(g).max() > 0 for g in ifg_grads)


def test_flow_pyramid_halves_and_rescales():
    flow = Tensor(np.full((16, 32, 2), 8.0))
    pyr = nets.flow_pyramid(flow)
    assert [p.shape for p in pyr] == [(16, 32, 2), (8, 16, 2), (4, 8, 2), (2, 4, 2)]
    np.testing.assert_allclose(pyr[1].data, 4.0)
    np.testing.assert_allclose(pyr[3].data, 1.0)


def test_overfit_single_identical_pair_drives_ffg_flow_to_zero():
    # identical frames with a zero initial flow: the photometric fixed point
    # for the decoder's flow is zero; perturb the head away and retrain
    from flowvo.geometry import flow_warp_coords
    from flowvo.losses import image_synthesis_loss
    from flowvo.nnops import grid_sample_bilinear, grid_sample_valid_mask
    from flowvo.trainer import AdamState, adam_step

    model = micro_model(ifg_mode="fixture", use_ffg=True, seed=3)
    rng = np.random.default_rng(16)
    img = Tensor(np.repeat(np.repeat(rng.random((4, 8, 3)), 4, axis=0), 4, axis=1))
    zero_flow = Tensor(np.zeros((16, 32, 2)))
    head_bias = model.params["f2f.fh0.b"]
    head_bias.data = head_bias.data + 0.7

    state = AdamState()
    ffg_params = {k: v for k, v in model.params.items()
                  if k.startswith(("f2f.g", "f2f.fh"))}
    for _ in range(120):
        model.zero_grads()
        out = model.flowpose(img, img, init_flow=zero_flow)
        flow0 = out.flows[0]
        coords = flow_warp_coords(flow0)
        mask = grid_sample_valid_mask(coords.data, 32, 16)
        rec = grid_sample_bilinear(img, coords)
        loss = image_synthesis_loss(rec, img, mask)
        loss.backward()
        adam_step(ffg_params, state, lr=0.02)
    final = model.flowpose(img, img, init_flow=zero_flow)
    assert np.abs(final.flows[0].data).mean() <= 0.15


# -- parameters / checkpoints ------------------------------------------------------


def test_every_parameter_gets_gradient_from_total_loss(tmp_path):
    from flowvo.synthscene import SceneSpec, render, SceneDataset
    from flowvo.trainer import TrainConfig, WindowData, window_losses

    out = str(tmp_path / "scene")
    render(SceneSpec(seed=21, n_frames=3, width=64, height=32, fx=55.0, fy=55.0,
                     cx=31.5, cy=15.5), out)
    ds = SceneDataset(out)
    model = nets.VoModel(nets.ModelConfig(image_h=32, image_w=64, d_model=16,
                                          n_heads=2, depth_base=2, flow_base=2,
                                          tape_base=2, ifg_mode="trainable",
                                          use_ffg=True, use_tape=True), seed=2)
    win = WindowData(
        lefts=[Tensor(ds.left(i)) for i in range(3)],
        rights=[Tensor(ds.right(i)) for i in range(3)],
        flows_fwd=None, flows_bwd=None)
    cfg = TrainConfig(total_iters=5, stage1_iters=1, seed=0)
    vals = window_losses(model, win, ds.rig, cfg, train_mode=True,
                         seeds=nets.SeedStream(1))
    vals["L_all"].backward()
    dead = [name for name, p in model.params.items()
            if p.grad is None or np.abs(p.grad).max() == 0.0]
    assert dead == [], f"parameters with zero gradient: {dead}"


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = micro_model(seed=9)
    path = str(tmp_path / "ck.bin")
    nets.save_checkpoint(path, model.param_arrays())
    table = nets.load_checkpoint(path)
    assert set(table) == set(model.params)
    for name, arr in table.items():
        np.testing.assert_array_equal(arr, model.params[name].data)


def test_encoders_keep_checkpoint_names_in_creation_order():
    # initial weights are drawn from one RNG in creation order, and
    # checkpoints address parameters by name
    names = list(micro_model(ifg_mode="trainable", use_ffg=True).params)
    assert names[:8] == [f"depth.e{i}.{p}" for i in range(4) for p in "wb"]
    for prefix, n in (("ifg.c", 2), ("f2f.e", 4), ("tape.e", 4)):
        expected = [f"{prefix}{i}.{p}" for i in range(n) for p in "wb"]
        start = names.index(expected[0])
        assert names[start:start + len(expected)] == expected


def test_checkpoint_rejects_garbage(tmp_path):
    path = str(tmp_path / "junk.bin")
    with open(path, "wb") as f:
        f.write(b"not a checkpoint at all")
    with pytest.raises(ContractError):
        nets.load_checkpoint(path)


def test_load_param_arrays_validates(tmp_path):
    model = micro_model()
    table = model.param_arrays()
    table.pop(sorted(table)[0])
    with pytest.raises(ContractError):
        model.load_param_arrays(table)


def test_forward_backward_deterministic_given_seeds():
    rng = np.random.default_rng(17)
    img_a = rng.random((16, 32, 3))
    img_b = rng.random((16, 32, 3))

    def run():
        model = micro_model(seed=11)
        out = model.flowpose(Tensor(img_a), Tensor(img_b),
                             init_flow=Tensor(np.zeros((16, 32, 2))))
        out.pose.sum().backward()
        return out.pose.data.copy(), model.params["f2f.e0.w"].grad.copy()

    p1, g1 = run()
    p2, g2 = run()
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(g1, g2)


def test_depthnet_overfits_flat_plane_within_ten_percent(tmp_path):
    # stereo-only training on a constant-depth scene recovers metric depth
    from flowvo.synthscene import SceneSpec, render, SceneDataset
    from flowvo.trainer import AdamState, TrainConfig, adam_step, stereo_stage_losses
    from flowvo.losses import total_loss

    out = str(tmp_path / "plane")
    plane_depth = 8.0
    render(SceneSpec(seed=5, n_frames=2, width=64, height=32, fx=55.0, fy=55.0,
                     cx=31.5, cy=15.5, base_depth=plane_depth, surface_amp=0.0,
                     speed=0.0, yaw_amp=0.0), out)
    ds = SceneDataset(out)
    model = nets.VoModel(nets.ModelConfig(image_h=32, image_w=64, depth_base=4,
                                          use_tape=False), seed=1)
    cfg = TrainConfig(total_iters=5, stage1_iters=5, n_scales=4, seed=0)
    state = AdamState()
    depth_params = {k: v for k, v in model.params.items() if k.startswith("depth.")}
    left, right = Tensor(ds.left(0)), Tensor(ds.right(0))
    for it in range(300):
        model.zero_grads()
        parts = stereo_stage_losses(model, left, right, ds.rig, cfg)
        loss = total_loss(parts["l_is"], Tensor(0.0), parts["l_sm"],
                          parts["l_lr"], parts["l_reg"], cfg.loss)
        loss.backward()
        adam_step(depth_params, state, lr=1e-3)
    with T.no_grad():
        maps = model.depth(left)
    median_depth = float(np.median(1.0 / maps[0].data[:, :, 0]))
    assert abs(median_depth - plane_depth) / plane_depth <= 0.10, median_depth
