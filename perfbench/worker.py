"""One benchmark process: a set-up probe, the pickup fixture, or one job round.

run.py starts each of these as a fresh interpreter with BLAS pinned to one
thread and PYTHONPATH pointing at the checkout's src/.  The process writes
its measurements to OUT/result.json; run.py aggregates them and runs the
checks that compare processes.

    python3 perfbench/worker.py {probe|fixture|round} --workload NAME \
        --seed N --out DIR [--fixture PATH] [--trace] [--tiny]

Nothing heavy is imported at module level: the probe times `import toc`
itself, and the pins must be in place before numpy loads.

Times are reported at nominal host speed (hostspeed.py): reference passes
run between env steps of the untraced rounds and after a probe's set-up,
and each timed span is scaled by the host slowness they measured.  The raw
wall times are reported beside them.  The traced round runs no passes, so
its spans hold program work only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Each workload is one `toc` job at a fixed config; `config` holds the flat
# config keys on top of the profile.  eval_every exceeds total_steps so the
# only evaluation is the step-0 pass every `toc run` makes.
WORKLOADS = {
    "desk-pushing": {
        "kind": "train",
        "config": {
            "task": "pushing", "variant": "toc", "profile": "desk", "lambda": "0.5",
            # the acceptance-suite config with fewer steps: 1000 random-action
            # steps, 300 exploration steps, 300 adaptation steps
            "exploration_steps": "1300", "total_steps": "1600",
            "eval_every": "5000", "log_every": "200",
        },
        "rounds": 4,
        "tiny": {"start_steps": "80", "exploration_steps": "100",
                 "total_steps": "120", "eval_episodes": "2", "log_every": "20"},
    },
    "desk-pickup-eval": {
        "kind": "eval",
        # the fixture's own step-0 evaluation is one episode; the measured
        # passes use eval_pass_episodes, as `toc eval --episodes 20` does
        "config": {
            "task": "pickup", "variant": "toc", "profile": "desk", "lambda": "0.5",
            "start_steps": "2000", "eval_episodes": "1",
        },
        "fill": 2000,
        "eval_pass_episodes": 20,
        "rounds": 3,
        "tiny": {"start_steps": "100", "eval_episodes": "1"},
        "tiny_fill": 100,
        "tiny_eval_pass_episodes": 2,
    },
    "paper-pushing": {
        "kind": "train",
        "config": {
            "task": "pushing", "variant": "toc", "profile": "paper", "lambda": "0.5",
            # 256 random-action steps, 6 exploration and 8 adaptation
            # updates (one per step at this profile); four eval episodes keep
            # updates the bulk of the run
            "start_steps": "256", "exploration_steps": "262", "total_steps": "270",
            "eval_every": "5000", "eval_episodes": "4", "log_every": "8",
            # the job stores 270 transitions; 1e6 would not fit in memory
            # once the buffer preallocates
            "buffer_size": "20000",
        },
        "rounds": 3,
        "tiny": {"start_steps": "130", "exploration_steps": "132",
                 "total_steps": "134", "eval_episodes": "1", "log_every": "2"},
    },
}

clock = time.perf_counter
PROBE_PASSES = 20


def make_config(name, tiny):
    from toc.config import parse_config_text

    spec = WORKLOADS[name]
    keys = dict(spec["config"], **(spec["tiny"] if tiny else {}))
    return parse_config_text("\n".join(f"{k} = {v}" for k, v in keys.items()))


def runtime_info(pins_env_ok):
    """Versions, BLAS and whether the one-thread pins took effect."""
    import ctypes
    import glob

    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    blas_threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib_path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = int(fn())
                break
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads,
        "pins_env_ok": pins_env_ok,
        "pinned": pins_env_ok and blas_threads in (1, None),
    }


class WallClock:
    """HostSpeed's timing interface without reference passes."""

    def hook(self, env):
        pass

    def timed(self, fn, *args):
        t = clock()
        out = fn(*args)
        raw = clock() - t
        return raw, raw, out


def state_digest(trainer):
    """sha256 over every curiosity, agent and buffer array: equal digests
    mean bit-equal arrays (dtype, shape and bytes)."""
    import numpy as np

    h = hashlib.sha256()
    for section, state in (("curiosity", trainer.curiosity.state_dict()),
                           ("agent", trainer.agent.state_dict()),
                           ("buffer", trainer.buffer.state_dict())):
        for key in sorted(state):
            a = np.ascontiguousarray(state[key])
            h.update(f"{section}:{key}:{a.dtype.str}:{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def eval_digest(result):
    """sha256 of an EvalResult: its summary floats and every trace's touches
    and rewards.  Also reports whether all of them are finite."""
    import numpy as np

    h = hashlib.sha256()
    summary = [result.success, result.episode_steps, result.touch_var,
               result.touch_events, result.obj_move]
    h.update(repr([float(v) for v in summary]).encode())
    finite = bool(np.all(np.isfinite(summary)))
    for trace in result.traces:
        touches = np.stack(trace.touches)
        h.update(touches.tobytes())
        h.update(np.asarray(trace.rewards, dtype=np.float64).tobytes())
        finite = finite and bool(np.all(np.isfinite(touches)))
    return h.hexdigest(), finite


def check_run_csv(path):
    """run.csv carries the 17 metrics.CSV_COLUMNS and only finite numbers."""
    import csv
    import math

    from toc.metrics import CSV_COLUMNS

    problems = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(CSV_COLUMNS) != 17 or rows[0] != CSV_COLUMNS:
        problems.append(f"header {rows[0]}")
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_COLUMNS):
            problems.append(f"line {lineno}: {len(row)} fields")
            continue
        for col, value in zip(CSV_COLUMNS, row):
            if col in ("phase", "variant"):
                continue
            try:
                ok = math.isfinite(float(value))
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"line {lineno}: {col}={value!r}")
    if len(rows) < 2:
        problems.append("no data rows")
    return problems


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------- processes


def probe(args):
    """Set-up time: `import toc` to the first env step of the workload's
    trainer, scaled by reference passes run right after it."""
    t0 = clock()
    import numpy as np

    from toc.trainer import Trainer

    cfg = make_config(args.workload, args.tiny)
    trainer = Trainer(cfg, args.seed)
    trainer.env.reset()
    trainer.env.step(np.zeros(trainer.env_action_dim))
    raw = clock() - t0

    from hostspeed import HostSpeed

    slowness = HostSpeed().sample(PROBE_PASSES)
    return {"setup_s": raw / slowness, "setup_raw_s": raw, "slowness": slowness}


def fixture(args):
    """The pickup checkpoint, built by this checkout's own Trainer.save from
    seeded random-action steps (start_steps covers every step)."""
    from toc.trainer import Trainer

    spec = WORKLOADS[args.workload]
    fill = spec["tiny_fill"] if args.tiny else spec["fill"]
    path = Path(args.out) / "fixture.npz"
    t0 = clock()
    trainer = Trainer(make_config(args.workload, args.tiny), args.seed)
    trainer.run(stop_after=fill)
    trainer.save(path)
    return {
        "build_s": clock() - t0,
        "ckpt_bytes": path.stat().st_size,
        "saved_digest": state_digest(trainer),
        "buffer_len": len(trainer.buffer),
    }


def train_round(args, out, tracer, timer):
    """One training job driven stage by stage through Trainer.run(stop_after=...),
    with the switch and final checkpoints `toc run` writes.  Each stage and
    save is timed on its own."""
    from toc.trainer import Trainer

    cfg = make_config(args.workload, args.tiny)
    trainer = Trainer(cfg, args.seed)
    timer.hook(trainer.env)
    timer.hook(trainer.eval_env)
    logs = []
    stage_s, stage_raw_s = {}, {}

    def timed(name, fn, *a):
        stage_s[name], stage_raw_s[name], result = timer.timed(fn, *a)
        return result

    def stage(name, stop):
        logs.append(out / f"log{len(logs)}.csv")
        return timed(name, trainer.run, logs[-1], None, None, stop)

    first_eval = stage("eval", 0)  # the step-0 evaluation pass
    stage("random", cfg.start_steps)
    stage("explore", cfg.exploration_steps)
    timed("save_switch", trainer.save, out / "checkpoint_switch.npz")
    stage("adapt", cfg.total_steps)
    final = out / "checkpoint_final.npz"
    timed("save_final", trainer.save, final)
    rss = peak_rss_mb()

    # run.csv as one Trainer.run call would write it: each call opens its
    # own RunLog, so keep the first header and every data row
    with open(out / "run.csv", "w", encoding="utf-8", newline="") as dst:
        for i, path in enumerate(logs):
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            dst.writelines(lines if i == 0 else lines[1:])
            path.unlink()
    eval_sha, eval_finite = eval_digest(first_eval)
    replay_bytes = None
    if tracer is not None:
        from tracer import deep_bytes

        replay_bytes = deep_bytes(trainer.buffer)

    saved = state_digest(trainer)
    restored = Trainer.restore(final)
    return {
        "stage_s": stage_s,
        "stage_raw_s": stage_raw_s,
        "steps": cfg.total_steps + sum(len(t) for t in first_eval.traces),
        "explore_steps": cfg.exploration_steps - cfg.start_steps,
        "adapt_steps": cfg.total_steps - cfg.exploration_steps,
        "ckpt_bytes": final.stat().st_size,
        "peak_rss_mb": rss,
        "csv_sha": hashlib.sha256((out / "run.csv").read_bytes()).hexdigest(),
        "csv_problems": check_run_csv(out / "run.csv"),
        "eval_sha": eval_sha,
        "eval_finite": eval_finite,
        "saved_digest": saved,
        "restored_digest": state_digest(restored),
        "buffer_len": len(trainer.buffer),
        "replay_bytes": replay_bytes,
    }


def eval_round(args, out, tracer, timer):
    """Trainer.restore of the fixture, then one deterministic evaluation pass
    on the `toc eval` path."""
    from toc.config import config_to_text, parse_config_text
    from toc.trainer import Trainer

    spec = WORKLOADS[args.workload]
    episodes = spec["tiny_eval_pass_episodes"] if args.tiny else spec["eval_pass_episodes"]
    restore_s, restore_raw_s, trainer = timer.timed(Trainer.restore, args.fixture)
    # as cmd_eval does for `toc eval --episodes N`
    trainer.cfg = parse_config_text(config_to_text(trainer.cfg),
                                    {"eval_episodes": str(episodes)})
    timer.hook(trainer.eval_env)
    eval_s, eval_raw_s, result = timer.timed(trainer._evaluate)
    rss = peak_rss_mb()
    eval_sha, eval_finite = eval_digest(result)
    replay_bytes = None
    if tracer is not None:
        from tracer import deep_bytes

        replay_bytes = deep_bytes(trainer.buffer)
    return {
        "stage_s": {"restore": restore_s, "eval": eval_s},
        "stage_raw_s": {"restore": restore_raw_s, "eval": eval_raw_s},
        "steps": sum(len(t) for t in result.traces),
        "peak_rss_mb": rss,
        "eval_sha": eval_sha,
        "eval_finite": eval_finite,
        "restored_digest": state_digest(trainer),
        "buffer_len": len(trainer.buffer),
        "replay_bytes": replay_bytes,
    }


def job_round(args):
    out = Path(args.out)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        timer = WallClock()
    else:
        from hostspeed import HostSpeed

        timer = HostSpeed()
    run = train_round if WORKLOADS[args.workload]["kind"] == "train" else eval_round
    t0 = clock()
    result = run(args, out, tracer, timer)
    wall_s = clock() - t0
    result["job_s"] = sum(result["stage_s"].values())
    result["job_raw_s"] = sum(result["stage_raw_s"].values())
    result["slowness"] = getattr(timer, "slowness", [])
    if tracer is not None:
        tracer.uninstall()
        tracer.write(out / "spans.json")
        layers = tracing.layer_metrics(tracer.spans, wall_s)
        layers["replay.bytes"] = float(result["replay_bytes"])
        layers["replay.bytes_per_transition"] = result["replay_bytes"] / result["buffer_len"]
        result["layers"] = layers
    for ckpt in out.glob("checkpoint_*.npz"):
        ckpt.unlink()  # tens of MB each; the run keeps only small records
    return result


def main(argv=None):
    # read before anything can import numpy
    pins_env_ok = "numpy" not in sys.modules and all(
        os.environ.get(v) == "1" for v in PIN_VARS
    )
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("probe", "fixture", "round"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fixture")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    result = {"probe": probe, "fixture": fixture, "round": job_round}[args.mode](args)
    result["runtime"] = runtime_info(pins_env_ok)
    Path(args.out, "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
