"""Command-line entry point.

Subcommands: train, eval, ablate, coldstart, stats, synth.  Every key of
pipeline.CONFIG_SCHEMA has a matching flag; precedence is preset < config
file < flag.
"""

import argparse
import os
import sys

from . import corpus, pipeline, social

# synth flags: (flag, SynthSpec field, help); each defaults to its field's default
_SYNTH_FLAGS = [
    ("--n-real", "n_real", "real articles"),
    ("--n-fake", "n_fake", "fake articles"),
    ("--n-users", "n_users", "users in the follower graph"),
    ("--vocab-size", "vocab_size", "words in the vocabulary"),
    ("--embed-dim", "embed_dim", "embedding dimension"),
    ("--signal", "publisher_signal", "publisher signal strength in [0, 1]"),
    ("--text-signal", "text_signal", "text marker signal strength in [0, 1]"),
]


def _flag_dest(key):
    """The flag dest of a config key: its last part, with the influence
    section kept.  `<section>.<name>` is --<name>, and `influence.<name>`
    is --influence-<name>."""
    return key.replace("influence.", "influence_").split(".")[-1]


def _add_config_flags(parser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", default="run", help="run directory (default: run)")
    for key, (_, _, _, help_text) in pipeline.CONFIG_SCHEMA.items():
        dest = _flag_dest(key)
        parser.add_argument("--" + dest.replace("_", "-"), dest=dest, help=f"{help_text} [{key}]")


def _config_from_args(args) -> pipeline.RunConfig:
    overrides = {}
    for key in pipeline.CONFIG_SCHEMA:
        val = getattr(args, _flag_dest(key))
        if val is not None:
            overrides[key] = val
    return pipeline.load_config(path=args.config, overrides=overrides)


def _cmd_train(args):
    config = _config_from_args(args)
    result = pipeline.train(config, out_dir=args.out)
    last = result.history[-1] if result.history else None
    print(f"trained {config.variant} for {result.epochs_run} epochs")
    if last:
        print(f"final train accuracy {last['train_acc']:.4f}")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _cmd_eval(args):
    config = _config_from_args(args)
    checkpoint = args.checkpoint or os.path.join(args.out, "checkpoint.bin")
    report = pipeline.evaluate(config, checkpoint, out_dir=args.out)
    print("\n".join(pipeline._report_text(report)))
    return 0


def _cmd_ablate(args):
    config = _config_from_args(args)
    results = pipeline.ablate(config, out_dir=args.out)
    print("\n".join(pipeline._grid_text("variant", results)))
    return 0


def _cmd_coldstart(args):
    config = _config_from_args(args)
    results = pipeline.coldstart_experiment(config, out_dir=args.out)
    print("\n".join(pipeline._grid_text("fraction", results)))
    return 0


def _cmd_stats(args):
    config = _config_from_args(args)
    if not config.train_path:
        print("stats needs --train (or data.train in the config)", file=sys.stderr)
        return 2
    articles = corpus.load_corpus(config.train_path)
    ledger = social.tally_credit(articles)
    graph = pipeline.load_graph(config)
    stats = pipeline.export_stats(articles, ledger, graph, mode=config.influence_mode)
    pipeline.write_stats(stats, args.out)
    print("\n".join(pipeline._stats_text(stats)))
    return 0


def _cmd_synth(args):
    spec = pipeline.SynthSpec(**{field: getattr(args, field) for _, field, _ in _SYNTH_FLAGS})
    data = pipeline.gen_synthetic(spec, args.seed)
    paths = pipeline.write_synthetic(data, args.out, test_fraction=args.test_fraction)
    for name in ("train", "test", "publishers", "edges", "embeddings"):
        print(f"{name}: {paths[name]}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fakereal",
        description="Fake/real news classification from article text and publisher history")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, help_text in (
            ("train", _cmd_train, "train a model and write a checkpoint"),
            ("ablate", _cmd_ablate, "train and evaluate all four variants"),
            ("coldstart", _cmd_coldstart, "retrain at perturbation fractions "
             + "/".join(f"{f:g}" for f in pipeline.COLDSTART_FRACTIONS)),
            ("stats", _cmd_stats, "per-class publisher feature statistics"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test corpus")
    _add_config_flags(p)
    p.add_argument("--checkpoint", help="checkpoint path (default: <out>/checkpoint.bin)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic corpus with controllable signal")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    for flag, field, help_text in _SYNTH_FLAGS:
        default = getattr(pipeline.SynthSpec, field)
        p.add_argument(flag, dest=field, type=type(default), default=default,
                       help=f"{help_text} (default: {default})")
    p.add_argument("--test-fraction", type=float, default=0.5)
    p.set_defaults(fn=_cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (pipeline.ConfigError, corpus.CorpusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
