"""Command-line entry point.

Commands:
  synth      render a synthetic stereo sequence with ground truth
  train      two-stage training on a rendered dataset
  infer      integrate pairwise pose predictions into a trajectory file
  eval       odometry drift metrics + ATE between two pose files
  gradcheck  finite-difference verification of primitives and losses
  ablate     paired runs with one component toggled, plus comparison

All outputs land under --out (or $FLOWVO_OUT/<command> when --out is
omitted). Config files use `section.key = value` lines; `--set` flags
override the file. Exit codes: 0 success, 2 configuration/input error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import dataio
from .config import ConfigError, describe_keys, load_run_config, preset_overrides
from .evaluate import Trajectory, ate, kitti_odometry_errors, write_error_report
from .gradcheck import REL_TOL, run_full_suite
from .synthscene import RenderError, SceneDataset, render
from .tensor import ContractError, NumericError
from .trainer import TrainingAborted, infer_trajectory, load_model, train


def _default_out(command: str) -> str:
    root = os.environ.get("FLOWVO_OUT")
    if root is None:
        raise ConfigError("no --out given and FLOWVO_OUT is not set")
    return os.path.join(root, command)


def _out_dir(args, command: str) -> str:
    out = args.out if args.out is not None else _default_out(command)
    os.makedirs(out, exist_ok=True)
    return out


def _require_exists(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def cmd_synth(args) -> int:
    cfg = load_run_config(args.config, args.set)
    out = _out_dir(args, "synth")
    info = render(cfg.scene, out)
    print(f"rendered {info['n_frames']} frames to {out}")
    return 0


def cmd_train(args) -> int:
    overrides = (preset_overrides(args.preset) if args.preset else []) + list(args.set)
    cfg = load_run_config(args.config, overrides)
    dataset = SceneDataset(_require_exists(args.data, "dataset"))
    out = _out_dir(args, "train")
    result = train(dataset, cfg.train, cfg.model, out,
                   resume_from=args.resume)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics: {result.metrics_path}")
    for key, val in result.final_losses.items():
        print(f"final {key}: {val:.6g}")
    return 0


def cmd_infer(args) -> int:
    model, _ = load_model(_require_exists(args.checkpoint, "checkpoint"))
    dataset = SceneDataset(_require_exists(args.data, "dataset"))
    frames = [dataset.left(i) for i in range(dataset.n_frames)]
    provider = dataset.flow_fwd if model.cfg.ifg_mode == "fixture" else None
    traj = infer_trajectory(model, frames, flow_provider=provider)
    out = args.out if args.out is not None else os.path.join(_default_out("infer"),
                                                             "trajectory.txt")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    dataio.write_pose_file(out, traj.poses)
    print(f"trajectory ({len(traj)} poses): {out}")
    return 0


def cmd_eval(args) -> int:
    gt_poses, _ = dataio.read_pose_file(_require_exists(args.gt, "ground-truth file"))
    pred_poses, _ = dataio.read_pose_file(_require_exists(args.pred, "prediction file"))
    gt = Trajectory(gt_poses, frame_rate=args.frame_rate)
    pred = Trajectory(pred_poses, frame_rate=args.frame_rate)
    errors = kitti_odometry_errors(gt, pred, step=args.step)
    ate_val = ate(gt, pred, align=args.align)
    out = _out_dir(args, "eval")
    write_error_report(out, errors, {args.align: ate_val})
    if errors.insufficient_length:
        print("status: insufficient length (< 100 m of ground-truth path)")
    print(f"t_err {errors.t_err_percent:.2f}, r_err {errors.r_err_deg_per_100m:.2f}")
    print(f"ate[{args.align}] {ate_val:.4f} m")
    print(f"report: {out}")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_full_suite(seed=args.seed, cases_per_op=args.cases)
    failed = False
    for name in sorted(results):
        err = results[name]
        status = "ok" if err <= REL_TOL else "FAIL"
        failed |= err > REL_TOL
        print(f"{name:26s} max_rel_err {err:.3e}  {status}")
    print(f"{'ALL FAILED' if failed else 'all primitives within tolerance'} "
          f"(tolerance {REL_TOL:g})")
    return 1 if failed else 0


_TOGGLES = ("tape", "ffg", "ifg")


def _toggle_variants(toggle: str, base_overrides: list[str]):
    """Returns (label, on_overrides, off_overrides) for an ablation toggle.

    `ffg` and `ifg` compare their tape-free component preset with the plain
    pairwise baseline preset; `tape` and `lpc=<value>` keep the configured
    pairwise components.
    """
    if toggle.startswith("lpc="):
        value = float(toggle[4:])
        return (f"lpc_{value:g}",
                base_overrides,
                base_overrides + [f"loss.lambda_pc={value:g}"])
    if toggle == "tape":
        return ("tape", base_overrides + ["model.use_tape=true"],
                base_overrides + ["model.use_tape=false"])
    if toggle in ("ffg", "ifg"):
        return (toggle, base_overrides + preset_overrides(toggle),
                base_overrides + preset_overrides("baseline"))
    raise ConfigError(f"unknown --toggle {toggle!r}; expected one of "
                      f"{_TOGGLES} or lpc=<value>")


def cmd_ablate(args) -> int:
    overrides = list(args.set or [])
    label, on_set, off_set = _toggle_variants(args.toggle, overrides)
    dataset = SceneDataset(_require_exists(args.data, "dataset"))
    heldout = SceneDataset(_require_exists(args.heldout, "held-out dataset"))
    out = _out_dir(args, "ablate")

    rows = []
    for variant, ov in (("on", on_set), ("off", off_set)):
        cfg = load_run_config(args.config, ov)
        vout = os.path.join(out, f"{label}_{variant}")
        result = train(dataset, cfg.train, cfg.model, vout)
        model, _ = load_model(result.checkpoint_path)
        frames = [heldout.left(i) for i in range(heldout.n_frames)]
        provider = heldout.flow_fwd if model.cfg.ifg_mode == "fixture" else None
        traj = infer_trajectory(model, frames, flow_provider=provider)
        dataio.write_pose_file(os.path.join(vout, "trajectory.txt"), traj.poses)
        gt = Trajectory(heldout.abs_poses)
        errors = kitti_odometry_errors(gt, traj)
        ate_val = ate(gt, traj, align="scale")
        write_error_report(os.path.join(vout, "eval"), errors, {"scale": ate_val})
        rows.append((variant, ate_val, errors.t_err_percent, errors.r_err_deg_per_100m,
                     result.final_losses.get("L_all", 0.0), int(errors.insufficient_length)))
        print(f"{label}[{variant}]: ate_scale {ate_val:.4f} m, "
              f"t_err {errors.t_err_percent:.2f}, r_err {errors.r_err_deg_per_100m:.2f}"
              + (", status: insufficient length" if errors.insufficient_length else ""))

    cmp_path = os.path.join(out, f"comparison_{label}.csv")
    with open(cmp_path, "w") as f:
        f.write("variant,ate_scale_m,t_err_percent,r_err_deg_per_100m,final_L_all,"
                "insufficient_length\n")
        for variant, a, t, r, l, short in rows:
            f.write(f"{variant},{a:.6f},{t:.6f},{r:.6f},{l:.6g},{short}\n")
    print(f"comparison: {cmp_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowvo",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--list-keys", action="store_true",
                        help="print every config key with its default and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p, config=True):
        if config:
            p.add_argument("--config", default=None, help="config file path")
            p.add_argument("--set", action="append", default=[],
                           metavar="SECTION.KEY=VALUE", help="config override")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("synth", help="render a synthetic dataset")
    common(p)

    p = sub.add_parser("train", help="train on a rendered dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--preset", default=None,
                   help="component preset: baseline | ffg | ifg | f2fpe | full")
    common(p)

    p = sub.add_parser("infer", help="predict a trajectory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="output trajectory file")

    p = sub.add_parser("eval", help="compare predicted and ground-truth trajectories")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--align", choices=("none", "scale", "sim3"), default="none")
    p.add_argument("--frame-rate", type=float, default=10.0)
    p.add_argument("--step", type=int, default=1,
                   help="subsequence start stride (1 = every frame)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=20)

    p = sub.add_parser("ablate", help="paired runs with one component toggled")
    p.add_argument("--data", required=True)
    p.add_argument("--heldout", required=True)
    p.add_argument("--toggle", required=True,
                   help="tape | ffg | ifg | lpc=<value>")
    common(p)
    return parser


_HANDLERS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_keys:
        print(describe_keys())
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, dataio.ParseError, ContractError, FileNotFoundError) as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except (RenderError, TrainingAborted, NumericError) as exc:
        print(f"error[runtime]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
