"""The toc benchmark: one workload per invocation, checked and summarised.

    python3 perfbench/run.py --workload desk-pushing --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  Every measured job runs in its own fresh
interpreter (perfbench/worker.py) with OMP/OpenBLAS/MKL pinned to one thread
and PYTHONPATH set to the checkout's src/; this process only starts them one
at a time, checks their outputs against each other and aggregates.

--trace 0: five set-up probes, then the workload's fixed number of job
rounds (more only while less than --seconds have passed), every repeat
checked against the first.  Prints the end-to-end metrics: each the median
over probes or rounds of times scaled to nominal host speed
(perfbench/hostspeed.py).
--trace 1: one untraced round and one traced round.  Prints the per-layer
metrics from the traced round; the two rounds must produce identical
outputs.

The last stdout line is the result object; the lines before it are the run
context and what each probe or round alone gave, scaled and raw.  Work files go to
.perfbench_work/ at the checkout root.  See perfbench/DESIGN.md for why the
workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_UNITS  # noqa: E402  (stdlib and numpy-free imports only)
from worker import PIN_VARS, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "explore_steps_per_s": "1/s",
    "adapt_steps_per_s": "1/s",
    "eval_pass_s": "s",
    "ckpt_mb": "MB",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole invocation must end within 180 s


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts worker processes one at a time and counts them as operations."""

    def __init__(self, root, work, args):
        self.root, self.work, self.args = root, work, args
        self.started = time.monotonic()
        self.attempted = 0
        self.failures = []
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        **{v: "1" for v in PIN_VARS})

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.started)

    def worker(self, mode, tag, *extra):
        """Run one worker; returns its result dict, or None when it failed."""
        out = self.work / tag
        out.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"), mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--out", str(out), *extra]
        if self.args.tiny:
            cmd.append("--tiny")
        self.attempted += 1
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, stderr = proc.communicate(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{tag}: worker exceeded the {DEADLINE_S:.0f} s deadline") from None
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            self.fail(tag, f"worker exit {proc.returncode}: {stderr.decode()[-2000:]}")
            return None
        return json.loads((out / "result.json").read_text(encoding="utf-8"))

    def fail(self, tag, why):
        self.failures.append(f"{tag}: {why}")
        print(f"[perfbench] FAILED {tag}: {why}", file=sys.stderr)


def round_problems(r, reference, fixture):
    """Checks on one job round: its own outputs, then against the first round."""
    problems = []
    if r.get("csv_problems"):
        problems.append(f"run.csv: {r['csv_problems'][:3]}")
    if not r["eval_finite"]:
        problems.append("non-finite evaluation result")
    saved = r["saved_digest"] if "saved_digest" in r else fixture["saved_digest"]
    if r["restored_digest"] != saved:
        problems.append("restored checkpoint arrays differ from the saved trainer's")
    if reference is not None:
        for key in ("csv_sha", "eval_sha"):
            if r.get(key) != reference.get(key):
                problems.append(f"{key} differs from the first round with the same seed")
    return problems


def job_round(runner, tag, fixture, reference, traced=False):
    """One checked job round; None when it failed."""
    extra = (["--fixture", fixture["path"]] if fixture else []) + (["--trace"] if traced else [])
    r = runner.worker("round", tag, *extra)
    if r is None:
        return None
    problems = round_problems(r, reference, fixture)
    if problems:
        runner.fail(tag, "; ".join(problems))
        return None
    return r


def timed_rounds(runner, fixture, seconds, n_rounds):
    """The workload's fixed number of job rounds, and more only while less
    than `seconds` have passed."""
    rounds, longest = [], 0.0
    t0 = time.monotonic()
    for i in itertools.count():
        if i >= n_rounds and (time.monotonic() - t0 >= seconds
                              or runner.remaining() < 2 * longest + 5):
            break
        t = time.monotonic()
        r = job_round(runner, f"round{i}", fixture, rounds[0] if rounds else None)
        longest = max(longest, time.monotonic() - t)
        if r is not None:
            rounds.append(r)
    return rounds


def median(values):
    return float(statistics.median(values))


def timing_metrics(r, key="stage_s"):
    """One round's rates and pass time, from its stage times at nominal host
    speed (key="stage_raw_s": from its raw wall times)."""
    stage_s = r[key]
    m = {"steps_per_s": r["steps"] / sum(stage_s.values()), "eval_pass_s": stage_s["eval"]}
    if "explore" in stage_s:
        m["explore_steps_per_s"] = r["explore_steps"] / stage_s["explore"]
        m["adapt_steps_per_s"] = r["adapt_steps"] / stage_s["adapt"]
    else:
        # an evaluation job has one stage: both stage rates report it
        m["explore_steps_per_s"] = m["adapt_steps_per_s"] = m["steps_per_s"]
    return m


def end_to_end(probes, rounds, fixture):
    """Returns (metrics, what each probe or round alone gave).  Every
    timing is the median over the probes or rounds."""
    samples = {"setup_s": [p["setup_s"] for p in probes],
               "peak_rss_mb": [r["peak_rss_mb"] for r in rounds]}
    raw = {"setup_s": [p["setup_raw_s"] for p in probes]}
    for r in rounds:
        for k, v in timing_metrics(r).items():
            samples.setdefault(k, []).append(v)
        for k, v in timing_metrics(r, "stage_raw_s").items():
            raw.setdefault(k, []).append(v)
    values = {k: median(v) for k, v in samples.items()}
    values["ckpt_mb"] = (fixture or rounds[0])["ckpt_bytes"] / 1e6
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END_UNITS.items()}
    return metrics, samples, raw


def per_layer(untraced, traced, fixture):
    layers = dict(traced["layers"])
    # the evaluation job loads the fixture and saves nothing
    layers["checkpoint.bytes"] = float((fixture or traced)["ckpt_bytes"])
    # same steps in both rounds, so the ratio of job times is the ratio of
    # rates; raw wall times, as the traced round runs no reference passes
    layers["trace.overhead_frac"] = traced["job_raw_s"] / untraced["job_raw_s"] - 1.0
    return {k: {"value": float(layers[k]), "unit": u} for k, u in LAYER_UNITS.items()}


def src_hash(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(root).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_state(root):
    # only a checkout with its own .git: git would otherwise search the
    # parent directories, outside the checkout
    if not (root / ".git").exists():
        return {"rev": None, "dirty": None}

    def git(*a):
        return subprocess.run(["git", *a], cwd=root, capture_output=True, text=True,
                              timeout=30, check=True).stdout.strip()

    try:
        return {"rev": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (subprocess.SubprocessError, OSError):
        return {"rev": None, "dirty": None}


def main(argv=None):
    p = argparse.ArgumentParser(description="toc benchmark (see perfbench/DESIGN.md)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="minimal job sizes, for the smoke test only")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "toc" / "__init__.py").is_file():
        print("perfbench: no src/toc here; run from the root of a toc checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    kind = WORKLOADS[args.workload]["kind"]
    runner = Runner(root, work, args)
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        **git_state(root), "src_sha256": src_hash(root),
        "python": sys.version.split()[0],
        "thread_env": {v: runner.env[v] for v in PIN_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    try:
        fixture = None
        if kind == "eval":
            fixture = runner.worker("fixture", "fixture")
            if fixture is None:
                raise BenchError("the pickup fixture could not be built")
            fixture["path"] = str(work / "fixture" / "fixture.npz")
            context["fixture_build_s"] = fixture["build_s"]
        if args.trace:
            probes = []
            untraced = job_round(runner, "round0", fixture, None)
            traced = job_round(runner, "round1-traced", fixture, untraced, traced=True)
            if untraced is None or traced is None:
                raise BenchError("the untraced and traced rounds did not both succeed")
            rounds = [untraced, traced]
            metrics, samples, raw = per_layer(untraced, traced, fixture), {}, {}
        else:
            probes = [r for r in (runner.worker("probe", f"probe{i}") for i in range(SETUP_PROBES))
                      if r is not None]
            rounds = timed_rounds(runner, fixture, args.seconds,
                                  WORKLOADS[args.workload]["rounds"])
            if not probes or not rounds:
                raise BenchError("no successful set-up probe or job round to measure")
            metrics, samples, raw = end_to_end(probes, rounds, fixture)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        for line in runner.failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    finally:
        for ckpt in work.rglob("*.npz"):
            ckpt.unlink()

    runtimes = [r["runtime"] for r in probes + rounds + ([fixture] if fixture else [])]
    unpinned = sum(not rt["pinned"] for rt in runtimes)
    if unpinned:
        print(f"[perfbench] WARNING: {unpinned} process(es) ran without the "
              "one-thread BLAS pins in effect", file=sys.stderr)
    passes = [p["slowness"] for p in probes] + [x for r in rounds for x in r["slowness"]]
    context.update(
        runtime=runtimes[0], unpinned_processes=unpinned,
        # host slowness the reference passes measured (1.0 = nominal speed)
        host_slowness={"median": median(passes), "min": min(passes), "max": max(passes),
                       "passes": len(passes)} if passes else None,
        rounds=len(rounds), failures=runner.failures,
        loadavg_after=os.getloadavg(),
    )
    (work / "context.json").write_text(json.dumps(context, indent=1), encoding="utf-8")
    print(json.dumps({"context": context}))
    if samples:
        # what each round alone gave (probes for setup_s), and the same
        # timings as raw wall times, before scaling to nominal host speed
        print(json.dumps({"per_round": {k: {"values": v, "n": len(v)} for k, v in samples.items()}}))
        print(json.dumps({"per_round_raw": {k: {"values": v, "n": len(v)} for k, v in raw.items()}}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
