"""fakereal benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload toy-ablate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workloads, the metrics and the reason
each workload exists are listed in BENCHMARK.json at the root.

A run generates the workload's inputs from --seed (untimed), then starts
one fresh worker process that repeats the workload's command sequence for
about --seconds, checks the outputs, and reports.  With --trace 0 the last
line of standard output is a JSON object holding every end-to-end metric;
with --trace 1 it holds every per-layer metric, measured on traced
repetitions.  The lines before it print the same figures by name and unit,
the environment stamp, the error rate and the output digests.  A JSON copy
with everything lands in perfbench/_results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import instrument
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "_results")
WORKER_TIMEOUT_S = 170.0
THREADS = "1"   # BLAS/OpenMP threads in the worker: steadier than nproc on a shared host
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"{path} not found")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "fakereal", "__init__.py")):
        raise BenchError(f"program sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import fakereal
    return fakereal


def env_stamp():
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "threads": {var: THREADS for var in THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def source_digest():
    """sha256 over the program's source files, which identifies the code
    measured where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def run(workload, seed, seconds, trace, sizes=None):
    """One benchmark run; returns (final result dict, full report dict)."""
    spec = load_spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {workload!r}")
    fr = import_program()
    work_dir = os.path.join(WORK, f"{workload}-s{seed}-t{trace}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(RESULTS, exist_ok=True)
    started = time.perf_counter()
    try:
        workloads.generate(workload, seed, work_dir, fr, sizes)
        generate_s = time.perf_counter() - started
        env = dict(os.environ, PYTHONPATH=SRC, **{var: THREADS for var in THREAD_VARS})
        worker_out = os.path.join(work_dir, "worker.json")
        spans = os.path.join(RESULTS, f"{workload}-s{seed}.spans.npz") if trace else ""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(float(seconds)), "--trace", str(trace),
               "--result", worker_out, "--spans", spans]
        try:
            proc = subprocess.run(cmd, cwd=work_dir, env=env, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        with open(worker_out, "r", encoding="utf-8") as fh:
            worker = json.load(fh)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = [r for r in worker["reps"] if r["kind"] == "plain"]
    traced = [r for r in worker["reps"] if r["kind"] == "traced"]
    if trace:
        wanted = spec["per_layer"]
        metrics = _medians([r["per_layer"] for r in traced])
        if plain and traced:
            metrics["trace.overhead_share"] = (
                statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain) - 1.0)
    else:
        wanted = spec["end_to_end"]
        metrics = end_to_end([r["end_to_end"] for r in plain])
        metrics["peak_rss_mb"] = worker["peak_rss_mb"]
    # seed-dependent, not speed-dependent, so a per-layer figure (no bound)
    metrics["quality.test_accuracy"] = worker["test_accuracy"]
    final = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if metrics.get(m["name"]) is not None},
    }
    missing = [m["name"] for m in wanted if m["name"] not in final["metrics"]]
    if missing and final["correct"]:
        raise BenchError(f"metrics not measured: {missing}")
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env_stamp(), "generate_s": generate_s,
        "error_rate": worker["failed"] / worker["attempted"],
        "worker": worker, "result": final,
    }
    report["path"] = os.path.relpath(os.path.join(RESULTS, f"{workload}-s{seed}-t{trace}.json"),
                                     ROOT)
    with open(os.path.join(ROOT, report["path"]), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return final, report


def _per_call_median(reps, key):
    """(seconds, work) of one command sequence's `key` calls: each call's
    median duration over the repetitions, summed over the calls."""
    calls = min(len(rep[key]) for rep in reps)
    time_s = sum(statistics.median(rep[key][i][0] for rep in reps) for i in range(calls))
    return time_s, sum(work for _, work in reps[0][key][:calls])


def end_to_end(reps):
    """End-to-end figures of one run from its plain repetitions.  Each
    timing is taken call by call: a call's median over the repetitions,
    summed over the calls one command sequence makes."""
    if not reps:
        return {}
    train_s, trained = _per_call_median(reps, "train")
    eval_s, evaluated = _per_call_median(reps, "evaluate")
    return {
        "setup_s": _per_call_median(reps, "prepare_data")[0],
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "train_articles_per_s": trained / train_s if train_s else None,
        "eval_articles_per_s": evaluated / eval_s if eval_s else None,
    }


def _medians(rows):
    if not rows:
        return {}
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def print_report(final, report):
    worker = report["worker"]
    reps = ", ".join("%s %.2f s" % (r["kind"], r["wall_s"]) for r in worker["reps"])
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"repetitions {len(worker['reps'])} ({reps})")
    print("env " + json.dumps(report["env"], sort_keys=True))
    width = max((len(name) for name in final["metrics"]), default=10)
    for name, m in final["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    if not report["trace"] and worker["test_accuracy"] is not None:
        print(f"  {'test_accuracy':<{width}}  {worker['test_accuracy']:.6g} ratio")
    print(f"  {'error_rate':<{width}}  {report['error_rate']:.6g} ratio "
          f"({worker['failed']} failed / {worker['attempted']} attempted)")
    for failure in worker["failures"]:
        print("FAILED " + failure.rstrip())
    if report["trace"] and final["correct"]:
        ops = {group: final["metrics"][f"nncore.{group}.fwd_s"]["value"]
               + final["metrics"][f"nncore.{group}.bwd_s"]["value"]
               for group in instrument.OP_GROUPS}
        top = max(ops, key=ops.get)
        print(f"largest nncore op self time (forward + backward): {top} {ops[top]:.4f} s")
    if worker["influence_check"]:
        print("influence check " + json.dumps(worker["influence_check"]))
    print(f"outputs digest {checks.combined_digest(worker['digests'])} "
          f"over {len(worker['digests'])} files (per-file digests in {report['path']})")
    print(json.dumps(final))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        final, report = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(final, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
