"""One benchmark run in a fresh process: repeat one workload's command
sequence for about --seconds, check the outputs, and write a JSON result.

Started by run.py with the generated inputs under ./inputs and fakereal on
PYTHONPATH.  Each repetition writes its run directory to ./rep<i>.  With
--trace 1 the repetitions alternate plain and traced, so the tracing
overhead is measured against plain repetitions of the same run.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import checks
import instrument
from workloads import CONFIG_NAME

MIN_REPS = 2          # digests are compared across repetitions
REP_START_LIMIT_S = 140.0  # never start a repetition past this point
INFLUENCE_SAMPLE = 12


class _Aborted(Exception):
    """An entry point failed; the rest of the repetition is skipped."""


class Ledger:
    """Attempted and failed operations: entry-point calls and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.failures.append(f"{label}: {traceback.format_exc()}")
            raise _Aborted(label) from None

    def check(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check failed: {label}")


# ---------------------------------------------------------------------------
# command sequences; each returns the EvalReports it produced and the one
# whose accuracy is the workload's quality figure


def _toy_ablate(fr, config, out, ledger):
    reports = ledger.call("ablate", fr.pipeline.ablate, config, out_dir=os.path.join(out, "ablate"))
    evaluated = []
    for variant, trained in reports.items():
        report = ledger.call(f"evaluate {variant}", fr.pipeline.evaluate,
                             config.with_overrides({"model.variant": variant}),
                             os.path.join(out, "ablate", variant, "checkpoint.bin"),
                             out_dir=os.path.join(out, "eval", variant))
        ledger.check(f"evaluate of the {variant} checkpoint matches ablate's report",
                     _confusion(report) == _confusion(trained))
        evaluated.append(report)
    return list(reports.values()) + evaluated, reports["full"]


def _confusion(report):
    return report.tp, report.fp, report.tn, report.fn


def _train_then_evaluate(fr, config, out, ledger):
    result = ledger.call("train", fr.pipeline.train, config, out_dir=os.path.join(out, "train"))
    checkpoint = result.checkpoint_path
    del result   # as with separate `train` and `eval` commands
    report = ledger.call("evaluate", fr.pipeline.evaluate, config, checkpoint,
                         out_dir=os.path.join(out, "eval"))
    return [report], report


def _influence_exact(fr, config, out, ledger):
    reports, main = _train_then_evaluate(fr, config, out, ledger)
    # what `fakereal stats` does
    articles = fr.corpus.load_corpus(config.train_path)
    ledger_credit = fr.social.tally_credit(articles)
    graph = fr.pipeline.load_graph(config)
    stats = ledger.call("export_stats", fr.pipeline.export_stats, articles, ledger_credit, graph,
                        mode=config.influence_mode)
    fr.pipeline.write_stats(stats, os.path.join(out, "stats"))
    ledger.check("stats means are finite",
                 all(np.isfinite(v) for cls in stats.means.values() for v in cls.values()))
    return reports, main


SEQUENCES = {
    "toy-ablate": _toy_ablate,
    "paper-train": _train_then_evaluate,
    "influence-exact": _influence_exact,
}


def _check_outputs(ledger, out, reports, test_size):
    for report in reports:
        ledger.check("tp+fp+tn+fn equals the test-set size", report.total == test_size)
    for rel in checks.output_files(out):
        path = os.path.join(out, rel)
        if rel.endswith("checkpoint.bin"):
            ledger.check(f"{rel}: every weight finite", checks.checkpoint_finite(path))
        elif rel.endswith("train.log"):
            ledger.check(f"{rel}: every logged loss finite", checks.losses_finite(path))


def _check_influence(fr, config, seed, ledger):
    """Program influence for a seeded publisher sample against the
    benchmark's own level-set enumeration, within 1e-12."""
    followers, n_users = checks.read_followers(config.edges_path)
    graph = fr.pipeline.load_graph(config)
    publishers = sorted({u for path in (config.train_path, config.test_path)
                         for art in fr.corpus.load_corpus(path) for u in art.publisher_ids})
    rng = np.random.default_rng([seed, 4])
    sample = rng.choice(publishers, size=min(INFLUENCE_SAMPLE, len(publishers)), replace=False)
    d_max = config.influence_d_max or None
    worst = 0.0
    for u in sample:
        got = fr.social.user_influence(graph, str(u))
        want = checks.level_set_influence(followers, n_users, str(u), config.influence_p, d_max)
        worst = max(worst, abs(got - want))
        ledger.check(f"user_influence({u}) matches the level-set enumeration",
                     abs(got - want) <= 1e-12)
    return {"sampled": len(sample), "max_abs_diff": worst}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SEQUENCES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    parser.add_argument("--spans", default="", help="where to write the traced spans")
    args = parser.parse_args(argv)

    import fakereal as fr   # from PYTHONPATH, as set by run.py

    config = fr.pipeline.load_config(os.path.join("inputs", CONFIG_NAME))
    if config.epochs < 0:
        raise SystemExit("benchmark workloads must fix train.epochs")
    test_size = checks.count_records(config.test_path)
    sequence = SEQUENCES[args.workload]
    ledger = Ledger()
    tracer = instrument.Tracer()
    reps = []
    rep_digests = []
    quality = None
    started = time.perf_counter()
    deadline = started + args.seconds
    last_wall = {}

    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        kind = "traced" if traced else "plain"
        if len(reps) >= MIN_REPS:
            now = time.perf_counter()
            if now + last_wall.get(kind, 0.0) > min(deadline, started + REP_START_LIMIT_S):
                break
        out = f"rep{len(reps)}"
        tracer.reset()
        gc.collect()
        patch = instrument.instrument(tracer, fr, traced)
        t0 = time.perf_counter()
        try:
            reports, main_report = sequence(fr, config, out, ledger)
        except _Aborted:
            reports, main_report = [], None
        finally:
            wall = time.perf_counter() - t0
            patch.undo()
        last_wall[kind] = wall
        rep = {"kind": kind, "wall_s": wall}
        if traced:
            rep["per_layer"] = instrument.per_layer(tracer, wall)
            if args.spans:
                tracer.save(args.spans)
        else:
            rep["end_to_end"] = instrument.end_to_end(tracer, wall)
        if main_report is None:
            reps.append(rep)
            break
        quality = main_report.accuracy
        _check_outputs(ledger, out, reports, test_size)
        rep_digests.append(checks.digests(out))
        reps.append(rep)
        del reports, main_report

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for i, other in enumerate(rep_digests[1:], start=1):
        ledger.check(f"rep{i} outputs byte-identical to rep0", other == rep_digests[0])
    influence = None
    if config.influence_mode == "exact" and ledger.failed == 0:
        influence = _check_influence(fr, config, args.seed, ledger)

    result = {
        "reps": reps,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "test_accuracy": quality,
        "test_size": test_size,
        "peak_rss_mb": peak_rss_mb,
        "digests": rep_digests[0] if rep_digests else {},
        "influence_check": influence,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
