"""flowvo benchmark: one workload, one run, one JSON result line.

    python3 flowbench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0

Run from the repository root; flowvo is imported from ./src. With
`--trace 0` the result holds the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the lines before it are the
run record. See flowbench/README.md for what each metric means.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

# Results are bit-identical only at one fixed BLAS thread count, and two
# threads measured no faster here, so the count is pinned before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("train_desk", "train_flowgen")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        p.error("--seconds must be in [1, 120]")
    return args


def calib_ms() -> float:
    """Median time of a fixed float64 matmul: a host-speed probe, never
    used to normalise a metric."""
    import numpy as np

    a = np.random.default_rng(0).random((192, 192))
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        for _ in range(4):
            a @ a
        times.append((time.perf_counter() - t0) * 1e3)
    return sorted(times)[len(times) // 2]


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(ROOT, ".git", name)
    if os.path.isfile(loose):
        with open(loose) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    return f"unknown ({name})"


def blas_version() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "flowvo", "__init__.py")):
        print(f"flowbench: no flowvo sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    import numpy as np

    import workloads as W
    from tracing import Tracer

    import_s = time.perf_counter() - T_START
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(),
        "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas_version(),
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    calib_before = calib_ms()
    tracer = Tracer() if args.trace else None
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        out = W.run_train(args.workload, args.seed, args.seconds, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calib_after = calib_ms()
    record.update(loadavg_end=os.getloadavg(), calib_ms_before=calib_before,
                  calib_ms_after=calib_after, checks=out.checks, notes=out.notes)

    render = W.median(out.render_s)
    setup_s = import_s + render + out.prep_s
    tail = W.tail(out.stage2_ms)
    iters_per_s = 1e3 * len(out.stage2_ms) / sum(out.stage2_ms) if out.stage2_ms else 0.0
    e2e = {
        "setup_s": (setup_s, "s"),
        "stage2_iters_per_s": (iters_per_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record["setup_parts_s"] = {"imports": import_s, "render_median": render,
                               "renders": out.render_s, "build_and_warmup": out.prep_s}
    record["synth_frames_per_s"] = out.frames / render
    record["stage2_ms"] = out.stage2_ms
    record["stage2_samples"] = len(out.stage2_ms)
    record["stage2_iter_ms_p50"] = W.median(out.stage2_ms)
    record["stage2_iter_ms_tail"] = tail[0] if tail else None
    record["stage2_tail_percentile"] = tail[1] if tail else None
    record["ops_failed_frac"] = out.failed / max(out.attempted, 1)
    record["stage1_iters_per_s"] = (1e3 * len(out.stage1_ms) / sum(out.stage1_ms)
                                    if out.stage1_ms else float("nan"))
    correct = bool(out.checks) and all(out.checks.values())

    if args.trace:
        layers = dict(out.layers)
        layers["host.calib_ms"] = (calib_before + calib_after) / 2.0
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(layers.items())}
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
        tracer.write_csv(spans)
        record["spans_csv"] = os.path.relpath(spans, ROOT)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    os.makedirs(OUT_DIR, exist_ok=True)
    rec_path = os.path.join(
        OUT_DIR, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(rec_path, "w") as f:
        json.dump({**record, "metrics": metrics}, f, indent=1, default=str)

    for key in ("git_revision", "python", "numpy", "blas", "blas_threads", "nproc",
                "loadavg_start", "loadavg_end", "calib_ms_before", "calib_ms_after"):
        print(f"record {key}: {record[key]}")
    print(f"record stage-2 iterations: {len(out.stage2_ms)} steady samples"
          + (f", tail = p{tail[1]:.1f} with {tail[2]} samples" if tail else ""))
    print(f"record stage-2 iteration (not graded): p50 {record['stage2_iter_ms_p50']:.2f} ms"
          + (f", tail {tail[0]:.2f} ms" if tail else ""))
    print(f"record synth_frames_per_s: {record['synth_frames_per_s']:.4f} "
          f"(median of {len(out.render_s)} renders of {out.frames} frames)")
    print(f"record stage1_iters_per_s: {record['stage1_iters_per_s']:.4f}")
    if out.notes.get("final_L_all") is not None:
        print(f"record final L_all (not graded): {out.notes['final_L_all']!r}")
    print(f"record ops_failed_frac: {record['ops_failed_frac']} "
          f"({out.failed} of {out.attempted})")
    for name, ok in out.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    if "error" in out.notes:
        print(f"error: {out.notes['error']}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".ms") or name.endswith("_ms"):
        return "ms"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
