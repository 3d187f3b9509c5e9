"""Training, evaluation, experiments, and run-directory plumbing.

A run is driven by a RunConfig (flat `key = value` file, every key
overridable from the CLI), trains with mini-batch Adam under per-purpose
RNG streams, and leaves behind a run directory: config.snapshot,
train.log, checkpoint.bin, report.txt, report.tsv.  Reports carry the
full config so any number can be traced back to its settings; nothing
time- or path-dependent is written, so identical (config, seed) runs
produce byte-identical reports.

Also here: the confusion-matrix metrics, the cold-start perturbation,
the ablation and cold-start experiment drivers, per-class publisher
statistics, and a synthetic corpus generator with controllable publisher
and text signal for desk-scale experiments.
"""

import io
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from . import corpus, fusion, nncore, social
from .corpus import DATASET_PRESETS, Label
from .fileio import atomic_write, open_text
from .fusion import VARIANTS
from .seeds import rng_for
from .slcnn import required_hcbs
from .social import EXPLICIT_ORDER, INFLUENCE_MODES

CHECKPOINT_FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# configuration


# key -> (attribute, type, default, help); each key is also a command-line
# flag (see cli._flag_dest)
CONFIG_SCHEMA = {
    "data.train": ("train_path", str, "", "training corpus (JSON lines)"),
    "data.test": ("test_path", str, "", "test corpus (JSON lines)"),
    "data.embeddings": ("embeddings_path", str, "", "word embeddings (text layout)"),
    "data.publishers": ("publishers_path", str, "", "user_id<TAB>follower_count table"),
    "data.edges": ("edges_path", str, "", "follower edge list (follower followed)"),
    "data.preset": ("preset", str, "", "dataset preset: " + " | ".join(DATASET_PRESETS)),
    "model.variant": ("variant", str, "full", " | ".join(VARIANTS)),
    "model.filters": ("filters", int, 8, "filters per convolution"),
    "model.dense_width": ("dense_width", int, 64, "hidden layer width"),
    "model.dropout": ("dropout", float, 0.5, "dropout rate"),
    "model.t_s": ("t_s", int, 46, "max words per sentence"),
    "model.t_d": ("t_d", int, 0, "max body sentences (0 = derive from train)"),
    "train.lr": ("lr", float, 0.001, "Adam learning rate"),
    "train.epochs": ("epochs", int, -1, "fixed epoch count (-1 = early stopping)"),
    "train.max_epochs": ("max_epochs", int, 200, "early-stopping epoch cap"),
    "train.patience": ("patience", int, 10, "early-stopping patience"),
    "train.val_fraction": ("val_fraction", float, 0.1, "validation slice of train"),
    "train.batch_size": ("batch_size", int, 32, "mini-batch size"),
    "train.stop_at_train_acc": ("stop_at_train_acc", float, 0.0,
                                "stop once train accuracy reached"),
    "train.seed": ("seed", int, 0, "master RNG seed"),
    "influence.mode": ("influence_mode", str, "follower_count", " | ".join(INFLUENCE_MODES)),
    "influence.p": ("influence_p", float, 0.5, "per-level share probability"),
    "influence.d_max": ("influence_d_max", int, 0, "influence depth bound (0 = none)"),
    "coldstart.fraction": ("coldstart_fraction", float, 0.0, "cold-start perturbation fraction"),
}

_ATTR_TO_KEY = {attr: key for key, (attr, *_) in CONFIG_SCHEMA.items()}


class ConfigError(ValueError):
    pass


def _parse_value(key, raw):
    typ = CONFIG_SCHEMA[key][1]
    try:
        value = typ(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {typ.__name__}") from None
    # int() would truncate 8.9 and read True as 1
    if typ is int and not isinstance(raw, str) and (isinstance(raw, bool) or value != raw):
        raise ConfigError(f"config key {key}: {raw!r} is not an integer")
    return value


class RunConfig:
    """Typed view over the flat config keys; immutable by convention."""

    def __init__(self, values=None):
        self._values = {key: default for key, (_, _, default, _) in CONFIG_SCHEMA.items()}
        for key, val in (values or {}).items():
            if key not in CONFIG_SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            self._values[key] = _parse_value(key, val)
        self._validate()

    def __getattr__(self, name):
        try:
            return self._values[_ATTR_TO_KEY[name]]
        except KeyError:
            raise AttributeError(name) from None

    def _validate(self):
        v = self._values
        if v["model.variant"] not in VARIANTS:
            raise ConfigError(f"model.variant must be one of {sorted(VARIANTS)}, "
                              f"got {v['model.variant']!r}")
        if v["influence.mode"] not in INFLUENCE_MODES:
            raise ConfigError(f"influence.mode must be one of {list(INFLUENCE_MODES)}, "
                              f"got {v['influence.mode']!r}")
        if v["data.preset"] and v["data.preset"] not in DATASET_PRESETS:
            raise ConfigError(f"unknown preset {v['data.preset']!r}")
        if not 0.0 <= v["model.dropout"] < 1.0:
            raise ConfigError("model.dropout must be in [0, 1)")
        if not 0.0 <= v["coldstart.fraction"] <= 1.0:
            raise ConfigError("coldstart.fraction must be in [0, 1]")
        if not 0.0 <= v["train.val_fraction"] < 1.0:
            raise ConfigError("train.val_fraction must be in [0, 1)")
        if not 0.0 <= v["influence.p"] <= 1.0:
            raise ConfigError("influence.p must be in [0, 1]")
        for key in ("model.filters", "model.dense_width", "model.t_s", "train.batch_size"):
            if v[key] < 1:
                raise ConfigError(f"{key} must be >= 1")
        for key in ("model.t_d", "train.max_epochs", "train.patience",
                    "influence.d_max"):
            if v[key] < 0:
                raise ConfigError(f"{key} must be >= 0")
        try:
            required_hcbs(v["model.t_s"])
        except ValueError as exc:
            raise ConfigError(f"model.t_s: {exc}") from None
        if v["model.t_s"] == 1:
            raise ConfigError("model.t_s: width 1 leaves the text stack no block to run")
        # the integrator reduces rows of the k latent values plus the
        # variant's explicit features
        n_columns = len(VARIANTS[v["model.variant"]])
        if n_columns:
            try:
                required_hcbs(v["model.filters"] + n_columns)
            except ValueError as exc:
                raise ConfigError(f"model.filters = {v['model.filters']} with variant "
                                  f"{v['model.variant']}: integrator {exc}") from None
        if v["train.epochs"] < -1:
            raise ConfigError("train.epochs must be >= -1 (-1 selects early stopping)")
        # written so that NaN fails each range check
        if not 0.0 < v["train.lr"] < math.inf:
            raise ConfigError(f"train.lr must be > 0 and finite, got {v['train.lr']!r}")
        if not 0.0 <= v["train.stop_at_train_acc"] <= 1.0:
            raise ConfigError(f"train.stop_at_train_acc must be in [0, 1], "
                              f"got {v['train.stop_at_train_acc']!r}")
        for key, text in self.to_pairs():
            _check_reloads(key, text)

    def with_overrides(self, overrides) -> "RunConfig":
        return RunConfig({**self._values, **overrides})

    def to_pairs(self):
        """Sorted (key, formatted value) pairs; the snapshot/report form."""
        out = []
        for key in sorted(self._values):
            val = self._values[key]
            out.append((key, repr(val) if isinstance(val, float) else str(val)))
        return out


# a comment starts at a '#' that opens the line or follows whitespace, so
# values such as paths may contain '#'
_COMMENT = re.compile(r"(?:^|\s)#")


def _read_config_file(path):
    with open_text(path, ConfigError) as fh:
        return _config_pairs(fh, path)


def _config_pairs(lines, path):
    """key -> raw value text of config-file lines; `path` names them in
    errors."""
    pairs = {}
    for lineno, line in enumerate(lines, 1):
        line = _COMMENT.split(line, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}: line {lineno}: unknown config key {key!r}")
        pairs[key] = raw.strip()
    return pairs


def _snapshot_line(key, text):
    return f"{key} = {text}\n"


def _check_reloads(key, text):
    """Raise ConfigError unless the config.snapshot line of `key` reads back
    as `text`, parsed as a UTF-8 file of that one line would be."""
    line = _snapshot_line(key, text)
    try:
        line.encode("utf-8")
        reread = _config_pairs(io.StringIO(line, newline=None), "config.snapshot")
    except (UnicodeEncodeError, ConfigError):
        reread = None
    if reread != {key: text}:
        raise ConfigError(f"config key {key}: {text!r} would not reload from a config file "
                          "unchanged (leading or trailing whitespace, a '#' that opens the "
                          "value or follows whitespace, a line break, or text UTF-8 cannot "
                          "encode)")


def load_config(path=None, overrides=None) -> RunConfig:
    """Assemble a RunConfig with precedence preset < file < overrides; the
    preset is data.preset's override if there is one, "" included, else the file's."""
    overrides = dict(overrides or {})
    file_pairs = _read_config_file(path) if path else {}
    preset_name = {**file_pairs, **overrides}.get("data.preset", "")
    # an unknown name sets nothing here; RunConfig rejects it
    merged = {f"model.{name}": value
              for name, value in DATASET_PRESETS.get(preset_name, {}).items()}
    merged.update(file_pairs)
    merged.update(overrides)
    return RunConfig(merged)


def write_config_snapshot(config: RunConfig, path):
    with atomic_write(path) as fh:
        for key, text in config.to_pairs():
            fh.write(_snapshot_line(key, text))


# ---------------------------------------------------------------------------
# metrics


@dataclass
class EvalReport:
    """Confusion counts and derived metrics; fake is the positive class."""
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    precision_undefined: bool = False
    recall_undefined: bool = False
    f1_undefined: bool = False

    @property
    def total(self):
        return self.tp + self.fp + self.tn + self.fn


def eval_report(y_true, y_pred) -> EvalReport:
    """Metrics from parallel 0/1 (real/fake) label arrays.

    Undefined ratios (empty denominator) are reported as 0 and flagged
    rather than raising, so degenerate predictors still get a report.
    """
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise ValueError(f"label arrays must be parallel vectors, got {t.shape} vs {p.shape}")
    if t.size == 0:
        raise ValueError("empty test set")
    tp = int(np.sum((t == 1) & (p == 1)))
    fp = int(np.sum((t == 0) & (p == 1)))
    tn = int(np.sum((t == 0) & (p == 0)))
    fn = int(np.sum((t == 1) & (p == 0)))
    accuracy = (tp + tn) / t.size
    precision_undefined = (tp + fp) == 0
    recall_undefined = (tp + fn) == 0
    precision = 0.0 if precision_undefined else tp / (tp + fp)
    recall = 0.0 if recall_undefined else tp / (tp + fn)
    f1_undefined = (precision + recall) == 0.0
    f1 = 0.0 if f1_undefined else 2.0 * precision * recall / (precision + recall)
    return EvalReport(tp=tp, fp=fp, tn=tn, fn=fn, accuracy=accuracy,
                      precision=precision, recall=recall, f1=f1,
                      precision_undefined=precision_undefined,
                      recall_undefined=recall_undefined,
                      f1_undefined=f1_undefined)


# ---------------------------------------------------------------------------
# data preparation


@dataclass
class DataBundle:
    """Everything a training or evaluation pass needs, fully materialized.

    train_x and test_x hold token ids (n, t_d+1, t_s) into `vectors`, the
    (V, E) word-vector table whose row 0 is padding; train_x is None when
    the training text was not tokenized (prepare_data's train_text)."""
    thresholds: corpus.Thresholds
    vectors: np.ndarray
    train_ids: list
    train_x: np.ndarray
    train_y: np.ndarray
    test_ids: list
    test_x: np.ndarray
    test_y: np.ndarray
    explicit_train: np.ndarray   # (n, 5) normalized, EXPLICIT_ORDER columns
    explicit_test: np.ndarray
    cold_train: np.ndarray       # bool: article had no publishers
    cold_test: np.ndarray
    scaler: social.MinMaxScaler


# credit columns inside the full explicit row; the cold-start experiment
# zeroes exactly these
_CREDIT_COLS = (EXPLICIT_ORDER.index("nct"), EXPLICIT_ORDER.index("ncf"))
_NUM_P = EXPLICIT_ORDER.index("num_p_credit")


def _publishers(articles):
    return [u for art in articles for u in art.publisher_ids]


def load_graph(config) -> social.FollowerGraph:
    d_max = config.influence_d_max if config.influence_d_max > 0 else None
    if config.edges_path:
        return social.load_edge_list(config.edges_path, p=config.influence_p, d_max=d_max)
    if config.publishers_path:
        return social.load_follower_counts(config.publishers_path)
    return social.FollowerGraph(p=config.influence_p, d_max=d_max)


def prepare_data(config: RunConfig, train_text=True) -> DataBundle:
    """Load corpora and side files, turn the text into token ids over one
    vector table, and build normalized explicit features (min-max fitted
    on the training split only).

    The text is tokenized first, so the embeddings file is parsed only on
    the lines of words the splits use; a corpus file's tokens come from
    its cache when an earlier call tokenized the same content
    (corpus.load_tokenized).  With train_text=False the training split
    gives only its publishers and labels (ledger, influence and scaler)
    and, when model.t_d is 0, its sentence counts: train_x is None, and
    the vocabulary and `vectors` cover the test split alone."""
    if not config.train_path or not config.test_path:
        raise ConfigError("data.train and data.test must be set")
    if not config.embeddings_path:
        raise ConfigError("data.embeddings must be set")

    if train_text or config.t_d == 0:
        train_articles, train_tok = corpus.load_tokenized(config.train_path)
    else:
        train_articles = corpus.load_corpus(config.train_path)
    test_articles, test_tok = corpus.load_tokenized(config.test_path)
    if not train_articles:
        raise ValueError("empty corpus")

    if config.t_d > 0:
        th = corpus.Thresholds(t_s=config.t_s, t_d=config.t_d)
    else:
        th = corpus.compute_thresholds(train_tok, config.t_s)

    vocab = {}
    train_x = corpus.token_ids(train_tok, th, vocab) if train_text else None
    test_x = corpus.token_ids(test_tok, th, vocab)
    vectors = corpus.load_embeddings(config.embeddings_path, vocab, oov_seed=config.seed)

    ledger = social.tally_credit(train_articles)
    graph = load_graph(config)
    # each distinct publisher is scored once, for both splits
    influence = social.influence_scores(graph, _publishers(train_articles + test_articles),
                                        config.influence_mode)
    raw_train = social.explicit_rows(train_articles, ledger, influence)
    raw_test = social.explicit_rows(test_articles, ledger, influence)
    scaler = social.fit_minmax(raw_train)

    return DataBundle(
        thresholds=th,
        vectors=vectors,
        train_ids=[a.id for a in train_articles],
        train_x=train_x,
        train_y=np.array([a.label.value for a in train_articles], dtype=np.int64),
        test_ids=[a.id for a in test_articles],
        test_x=test_x,
        test_y=np.array([a.label.value for a in test_articles], dtype=np.int64),
        explicit_train=social.apply_minmax(scaler, raw_train),
        explicit_test=social.apply_minmax(scaler, raw_test),
        cold_train=raw_train[:, _NUM_P] == 0,
        cold_test=raw_test[:, _NUM_P] == 0,
        scaler=scaler,
    )


def cold_start_perturb(features, fraction, rng):
    """A copy of the explicit rows `features` (n, 5) with the credit
    columns zeroed in round(fraction*n) uniformly chosen rows.  Other
    columns, including the publisher counts, stay untouched.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = np.random.default_rng(rng)
    out = np.array(features, dtype=np.float64)
    n = out.shape[0]
    picked = rng.choice(n, size=int(round(fraction * n)), replace=False)
    out[np.ix_(picked, _CREDIT_COLS)] = 0.0
    return out


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    model: fusion.Model
    bundle: DataBundle
    history: list           # per epoch: {epoch, loss, train_acc, val_acc}
    log_lines: list
    epochs_run: int
    checkpoint_path: str = ""


# article rows per prediction chunk: a whole toy-shape fit set at once, about
# 29 articles at paper shape (281 rows), so the pass's memory stays bounded
PREDICT_ROWS = 8192


def _predict_all(model, x, vectors, explicit):
    chunk = max(1, PREDICT_ROWS // x.shape[1])
    preds = []
    for start in range(0, x.shape[0], chunk):
        sl = slice(start, start + chunk)
        _, p = fusion.predict_batch(model, x[sl], vectors, explicit[sl])
        preds.append(p)
    return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)


def train(config: RunConfig, out_dir=None, bundle: DataBundle = None) -> TrainResult:
    """Mini-batch Adam training of the configured variant.

    epochs >= 0 trains that exact count (0 leaves the checkpoint at its
    initialization); epochs = -1 uses early stopping on a held-out
    validation slice of the training split (patience on accuracy, best
    weights restored).  Deterministic for a fixed config: init, dropout,
    shuffling, the validation split, and the cold-start perturbation each
    draw from their own seeded stream.  A non-finite loss, or a finite
    loss with a non-finite gradient, stops training with a ValueError
    naming the epoch and batch, before anything is written to out_dir.
    """
    if bundle is None:
        bundle = prepare_data(config)
    th = bundle.thresholds

    explicit = cold_start_perturb(bundle.explicit_train, config.coldstart_fraction,
                                  rng_for(config.seed, "perturb_train"))

    model = fusion.init_model(config.variant, th.t_s, th.t_d, bundle.vectors.shape[1],
                              rng_for(config.seed, "init"), k=config.filters,
                              dense_width=config.dense_width,
                              dropout_rate=config.dropout)
    tensors = model.param_tensors()
    grad = np.empty_like(model.flat)
    state = nncore.AdamState(model.flat, lr=config.lr)
    rng_shuffle = rng_for(config.seed, "shuffle")
    rng_dropout = rng_for(config.seed, "dropout")

    n = bundle.train_x.shape[0]
    y = bundle.train_y
    early_stopping = config.epochs < 0
    if early_stopping:
        if n < 2:
            raise ValueError("early stopping needs at least 2 training articles")
        val_count = max(1, int(round(config.val_fraction * n)))
        if val_count >= n:
            raise ValueError("training split too small for validation")
        perm = rng_for(config.seed, "valsplit").permutation(n)
        val_idx, fit_idx = perm[:val_count], perm[val_count:]
        max_epochs = config.max_epochs
    else:
        val_idx, fit_idx = np.zeros(0, dtype=np.int64), np.arange(n)
        max_epochs = config.epochs

    history = []
    log_lines = [f"variant {config.variant} articles {n} "
                 f"(fit {len(fit_idx)} val {len(val_idx)}) seed {config.seed}"]
    best_val, best_epoch, best_params = -1.0, 0, None
    epochs_run = 0
    stop_reason = "max epochs reached" if max_epochs > 0 else "no epochs requested"

    for epoch in range(1, max_epochs + 1):
        epochs_run = epoch
        order = fit_idx[rng_shuffle.permutation(len(fit_idx))]
        loss_sum = 0.0
        for batch, start in enumerate(range(0, len(order), config.batch_size), 1):
            idx = order[start:start + config.batch_size]
            nncore.zero_grads(tensors)
            loss = fusion.loss_batch(model, bundle.train_x[idx], bundle.vectors,
                                     explicit[idx], y[idx], "train", rng_dropout)
            if not np.isfinite(loss.data):
                raise ValueError(f"training diverged: loss {float(loss.data)} at epoch "
                                 f"{epoch} batch {batch} (lr {config.lr!r})")
            loss.backward()
            nncore.gather_grads(tensors, grad)
            if not np.isfinite(grad).all():
                raise ValueError(f"training diverged: non-finite gradient at epoch {epoch} "
                                 f"batch {batch} (lr {config.lr!r})")
            nncore.adam_step(model.flat, grad, state)
            loss_sum += float(loss.data) * len(idx)
        epoch_loss = loss_sum / len(order)

        train_acc = float(np.mean(
            _predict_all(model, bundle.train_x[fit_idx], bundle.vectors, explicit[fit_idx])
            == y[fit_idx]))
        entry = {"epoch": epoch, "loss": epoch_loss, "train_acc": train_acc, "val_acc": None}
        line = f"epoch {epoch:4d} loss {epoch_loss:.6f} train_acc {train_acc:.4f}"
        if early_stopping:
            val_acc = float(np.mean(
                _predict_all(model, bundle.train_x[val_idx], bundle.vectors, explicit[val_idx])
                == y[val_idx]))
            entry["val_acc"] = val_acc
            line += f" val_acc {val_acc:.4f}"
            if val_acc > best_val:
                best_val, best_epoch = val_acc, epoch
                best_params = model.flat.copy()
            elif epoch - best_epoch >= config.patience:
                history.append(entry)
                log_lines.append(line)
                stop_reason = f"no val improvement for {config.patience} epochs"
                break
        history.append(entry)
        log_lines.append(line)
        if config.stop_at_train_acc > 0.0 and train_acc >= config.stop_at_train_acc:
            stop_reason = f"train accuracy reached {config.stop_at_train_acc!r}"
            break

    if early_stopping and best_params is not None:
        model.flat[...] = best_params
        log_lines.append(f"stopped: {stop_reason}; restored epoch {best_epoch} "
                         f"(val_acc {best_val:.4f})")
    else:
        log_lines.append(f"stopped: {stop_reason}")

    result = TrainResult(model=model, bundle=bundle, history=history,
                         log_lines=log_lines, epochs_run=epochs_run)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_config_snapshot(config, os.path.join(out_dir, "config.snapshot"))
        with atomic_write(os.path.join(out_dir, "train.log")) as fh:
            fh.write("\n".join(log_lines) + "\n")
        result.checkpoint_path = os.path.join(out_dir, "checkpoint.bin")
        save_model(result.checkpoint_path, model, bundle, config)
    return result


def save_model(path, model: fusion.Model, bundle: DataBundle, config: RunConfig):
    arrays = {name: t.data for name, t in model.parameters().items()}
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "variant": model.variant,
        "t_s": bundle.thresholds.t_s,
        "t_d": bundle.thresholds.t_d,
        "embed_dim": bundle.vectors.shape[1],
        "k": model.k,
        "dense_width": config.dense_width,
        "dropout": model.dropout_rate,
        "seed": config.seed,
        "scaler_mins": bundle.scaler.mins.tolist(),
        "scaler_maxs": bundle.scaler.maxs.tolist(),
    }
    nncore.save_checkpoint(path, arrays, meta)


def load_model(path):
    """Rebuild a model from a checkpoint; returns (model, meta)."""
    arrays, meta = nncore.load_checkpoint(path)
    if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta.get('format_version')!r}")
    model = fusion.init_model(meta["variant"], meta["t_s"], meta["t_d"],
                              meta["embed_dim"], np.random.default_rng(0),
                              k=meta["k"], dense_width=meta["dense_width"],
                              dropout_rate=meta["dropout"])
    params = model.parameters()
    if set(params) != set(arrays):
        raise ValueError("checkpoint parameters do not match the model layout")
    for name, t in params.items():
        if arrays[name].shape != t.data.shape:
            raise ValueError(f"checkpoint array {name} has shape {arrays[name].shape}, "
                             f"expected {t.data.shape}")
        t.data[...] = arrays[name]
    return model, meta


# ---------------------------------------------------------------------------
# evaluation


def evaluate_model(model: fusion.Model, bundle: DataBundle, config: RunConfig) -> EvalReport:
    """Test-set metrics, applying the configured cold-start fraction to
    the test features (its own RNG stream, independent of training)."""
    if bundle.test_x.shape[0] == 0:
        raise ValueError("empty test set")
    explicit = cold_start_perturb(bundle.explicit_test, config.coldstart_fraction,
                                  rng_for(config.seed, "perturb_test"))
    preds = _predict_all(model, bundle.test_x, bundle.vectors, explicit)
    return eval_report(bundle.test_y, preds)


def evaluate(config: RunConfig, checkpoint_path, out_dir=None) -> EvalReport:
    """Evaluate a stored checkpoint against the configured test data.
    The checkpoint is loaded, and its variant, filters and dense width
    checked against the config, before any data is read; only the test
    split's text is tokenized and embedded."""
    model, meta = load_model(checkpoint_path)
    for name, key in (("variant", "variant"), ("filters", "k"), ("dense_width", "dense_width")):
        if meta[key] != getattr(config, name):
            raise ValueError(f"checkpoint is for {name} {meta[key]!r}, "
                             f"config says {getattr(config, name)!r}")
    bundle = prepare_data(config, train_text=False)
    if (meta["t_s"], meta["t_d"]) != (bundle.thresholds.t_s, bundle.thresholds.t_d):
        raise ValueError("checkpoint thresholds do not match the prepared data")
    if meta["embed_dim"] != bundle.vectors.shape[1]:
        raise ValueError("checkpoint embedding dimension does not match")
    if (not np.array_equal(np.array(meta["scaler_mins"]), bundle.scaler.mins)
            or not np.array_equal(np.array(meta["scaler_maxs"]), bundle.scaler.maxs)):
        raise ValueError("checkpoint was trained against different training data "
                         "(normalization ranges differ)")
    report = evaluate_model(model, bundle, config)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_report_files(out_dir, config, report)
    return report


def _report_rows(report: EvalReport):
    return [
        ("count.tp", str(report.tp)),
        ("count.fp", str(report.fp)),
        ("count.tn", str(report.tn)),
        ("count.fn", str(report.fn)),
        ("metric.accuracy", repr(report.accuracy)),
        ("metric.precision", repr(report.precision)),
        ("metric.recall", repr(report.recall)),
        ("metric.f1", repr(report.f1)),
        ("flag.precision_undefined", str(int(report.precision_undefined))),
        ("flag.recall_undefined", str(int(report.recall_undefined))),
        ("flag.f1_undefined", str(int(report.f1_undefined))),
    ]


def _report_text(report: EvalReport):
    lines = [
        f"test articles: {report.total}",
        f"confusion (fake = positive): tp={report.tp} fp={report.fp} "
        f"tn={report.tn} fn={report.fn}",
        f"accuracy:  {report.accuracy:.4f}",
        f"precision: {report.precision:.4f}",
        f"recall:    {report.recall:.4f}",
        f"f1:        {report.f1:.4f}",
    ]
    for name, flagged in (("precision", report.precision_undefined),
                          ("recall", report.recall_undefined),
                          ("f1", report.f1_undefined)):
        if flagged:
            lines.append(f"note: {name} undefined (empty denominator), reported as 0")
    return lines


def write_report_files(out_dir, config: RunConfig, report: EvalReport):
    with atomic_write(os.path.join(out_dir, "report.tsv")) as fh:
        for key, val in config.to_pairs():
            fh.write(f"config.{key}\t{val}\n")
        for key, val in _report_rows(report):
            fh.write(f"{key}\t{val}\n")
    with atomic_write(os.path.join(out_dir, "report.txt")) as fh:
        fh.write("\n".join(_report_text(report)) + "\n")


# ---------------------------------------------------------------------------
# experiments


def ablate(config: RunConfig, out_dir=None) -> dict:
    """Train and evaluate all four variants on one prepared dataset
    (tokenized once); returns variant -> EvalReport."""
    return _sweep(config, "model.variant", tuple(VARIANTS), out_dir, "variant", "")


COLDSTART_FRACTIONS = (0.0, 0.1, 0.2, 0.3)


def coldstart_experiment(config: RunConfig, out_dir=None, fractions=COLDSTART_FRACTIONS) -> dict:
    """Retrain the configured variant at each perturbation level (the
    perturbation hits train and test features); returns fraction -> report."""
    return _sweep(config, "coldstart.fraction", fractions, out_dir, "fraction", "frac_")


def _sweep(config, key, values, out_dir, axis_name, subdir_prefix):
    """Train and evaluate one config per value of `key`, all on one
    prepared dataset; returns value -> EvalReport.  Every config is built
    and validated before the data is prepared.  With out_dir, each run
    writes to the subdirectory subdir_prefix + its grid label, and the
    grid report goes to out_dir itself."""
    configs = [config.with_overrides({key: value}) for value in values]
    bundle = prepare_data(config)
    results = {}
    for value, cfg in zip(values, configs):
        sub = os.path.join(out_dir, subdir_prefix + _grid_label(value)) if out_dir else None
        res = train(cfg, out_dir=sub, bundle=bundle)
        report = evaluate_model(res.model, bundle, cfg)
        if sub:
            write_report_files(sub, cfg, report)
        results[value] = report
    if out_dir:
        _write_grid_report(out_dir, config, axis_name, results)
    return results


def _grid_label(value):
    return value if isinstance(value, str) else f"{value:g}"


def _grid_text(axis_name, results):
    """The sweep table of report.txt: one row per swept value."""
    lines = [f"{axis_name:>10}  accuracy  precision  recall      f1"]
    for value, r in results.items():
        lines.append(f"{_grid_label(value):>10}  {r.accuracy:8.4f}  {r.precision:9.4f}  "
                     f"{r.recall:6.4f}  {r.f1:6.4f}")
    return lines


def _write_grid_report(out_dir, config, axis_name, results):
    with atomic_write(os.path.join(out_dir, "report.tsv")) as fh:
        for key, val in config.to_pairs():
            fh.write(f"config.{key}\t{val}\n")
        for value, report in results.items():
            for row_key, val in _report_rows(report):
                fh.write(f"{axis_name}.{_grid_label(value)}\t{row_key}\t{val}\n")
    with atomic_write(os.path.join(out_dir, "report.txt")) as fh:
        fh.write("\n".join(_grid_text(axis_name, results)) + "\n")


# ---------------------------------------------------------------------------
# publisher statistics


STAT_FEATURES = ("nct", "ncf", "ncf_over_nct", "ni", "num_p")


@dataclass
class PublisherStats:
    """Per-class means of the raw (pre-normalization) publisher features."""
    means: dict   # class name -> {feature -> mean}


def export_stats(articles, ledger: dict, graph: social.FollowerGraph,
                 mode="follower_count") -> PublisherStats:
    influence = social.influence_scores(graph, _publishers(articles), mode)
    col = dict(zip(EXPLICIT_ORDER, social.explicit_rows(articles, ledger, influence).T))
    nct, ncf = col["nct"], col["ncf"]
    ratio = np.divide(ncf, nct, out=np.zeros_like(nct), where=nct > 0)
    table = np.column_stack([nct, ncf, ratio, col["ni"], col["num_p_credit"]])   # STAT_FEATURES
    fake = np.array([art.label is Label.FAKE for art in articles], dtype=bool)
    means = {}
    for cls, mask in (("real", ~fake), ("fake", fake)):
        arr = table[mask]
        means[cls] = {feat: float(arr[:, i].mean()) if len(arr) else 0.0
                      for i, feat in enumerate(STAT_FEATURES)}
    return PublisherStats(means=means)


def write_stats(stats: PublisherStats, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with atomic_write(os.path.join(out_dir, "stats.tsv")) as fh:
        for cls in ("real", "fake"):
            for feat in STAT_FEATURES:
                fh.write(f"{cls}\t{feat}\t{repr(stats.means[cls][feat])}\n")
    with atomic_write(os.path.join(out_dir, "stats.txt")) as fh:
        fh.write("\n".join(_stats_text(stats)) + "\n")


def _stats_text(stats: PublisherStats):
    lines = [f"{'feature':>14}  {'real mean':>12}  {'fake mean':>12}"]
    for feat in STAT_FEATURES:
        lines.append(f"{feat:>14}  {stats.means['real'][feat]:12.4f}  "
                     f"{stats.means['fake'][feat]:12.4f}")
    return lines


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass
class SynthSpec:
    """Knobs for the synthetic corpus.

    publisher_signal s: a publisher comes from the article's own class
    pool with probability (1+s)/2, so 0 makes publishers uninformative
    and 1 makes them fully determine the label.  text_signal works the
    same way on marker words, which replace filler words at marker_rate.
    """
    n_real: int = 50
    n_fake: int = 50
    n_users: int = 40
    vocab_size: int = 150
    n_markers: int = 8
    embed_dim: int = 16
    publisher_signal: float = 1.0
    text_signal: float = 0.3
    marker_rate: float = 0.25
    sents_min: int = 3
    sents_max: int = 6
    words_min: int = 5
    words_max: int = 9
    pubs_min: int = 1
    pubs_max: int = 3
    followers_real: tuple = (10, 30)
    followers_fake: tuple = (0, 8)


@dataclass
class SynthData:
    articles: list
    follower_counts: dict
    edges: list
    embeddings: dict
    real_pool: list
    fake_pool: list


def _check_synth_spec(spec: SynthSpec):
    if spec.n_real < 0 or spec.n_fake < 0 or spec.n_real + spec.n_fake < 1:
        raise ValueError("class sizes must be non-negative and sum to >= 1")
    for name in ("publisher_signal", "text_signal", "marker_rate"):
        val = getattr(spec, name)
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {val}")
    if spec.n_users < 2 or spec.n_users % 2 != 0:
        raise ValueError("n_users must be an even number >= 2")
    if spec.vocab_size < 1 or spec.n_markers < 1 or spec.embed_dim < 1:
        raise ValueError("vocab_size, n_markers, and embed_dim must be >= 1")
    for lo, hi, name in ((spec.sents_min, spec.sents_max, "sents"),
                         (spec.words_min, spec.words_max, "words"),
                         (spec.pubs_min, spec.pubs_max, "pubs"),
                         (spec.followers_real[0], spec.followers_real[1], "followers_real"),
                         (spec.followers_fake[0], spec.followers_fake[1], "followers_fake")):
        if lo < 0 or hi < lo:
            raise ValueError(f"{name} range must satisfy 0 <= min <= max")
    if spec.words_min < 1 or spec.sents_min < 1:
        raise ValueError("articles need at least one word per sentence and one sentence")
    if spec.pubs_max > spec.n_users // 2:
        raise ValueError("pubs_max cannot exceed the per-class user pool size")


def gen_synthetic(spec: SynthSpec, seed: int) -> SynthData:
    """Desk-scale corpus with controllable label signal.

    Users split into a real-leaning and a fake-leaning pool; publisher
    choice leaks the label at strength publisher_signal, marker words at
    text_signal.  Real-pool users get follower counts from the higher
    range, so influence features separate classes exactly as the credit
    ones do.  Also emits embeddings covering the whole vocabulary.
    """
    _check_synth_spec(spec)
    rng = rng_for(seed, "synth")

    users = [f"u{i:04d}" for i in range(spec.n_users)]
    half = spec.n_users // 2
    real_pool, fake_pool = users[:half], users[half:]

    counts = {}
    for pool, (lo, hi) in ((real_pool, spec.followers_real), (fake_pool, spec.followers_fake)):
        for u in pool:
            counts[u] = min(int(rng.integers(lo, hi + 1)), spec.n_users - 1)
    edges = []
    for u in users:
        others = [v for v in users if v != u]
        for follower in rng.choice(others, size=counts[u], replace=False):
            edges.append((str(follower), u))

    fillers = [f"w{i:04d}" for i in range(spec.vocab_size)]
    markers = {
        Label.REAL: [f"realmark{i}" for i in range(spec.n_markers)],
        Label.FAKE: [f"fakemark{i}" for i in range(spec.n_markers)],
    }
    embeddings = {}
    for word in fillers + markers[Label.REAL] + markers[Label.FAKE]:
        embeddings[word] = rng.uniform(-0.5, 0.5, spec.embed_dim)

    def sentence(label):
        own_p = (1.0 + spec.text_signal) / 2.0
        words = []
        for _ in range(int(rng.integers(spec.words_min, spec.words_max + 1))):
            if rng.random() < spec.marker_rate:
                cls = label if rng.random() < own_p else _other(label)
                pool = markers[cls]
                words.append(pool[int(rng.integers(len(pool)))])
            else:
                words.append(fillers[int(rng.integers(len(fillers)))])
        return " ".join(words)

    def publishers(label):
        own_p = (1.0 + spec.publisher_signal) / 2.0
        own = real_pool if label is Label.REAL else fake_pool
        other = fake_pool if label is Label.REAL else real_pool
        want = int(rng.integers(spec.pubs_min, spec.pubs_max + 1))
        chosen = []
        attempts = 0
        while len(chosen) < want and attempts < 100 * (want + 1):
            pool = own if rng.random() < own_p else other
            pick = pool[int(rng.integers(len(pool)))]
            if pick not in chosen:
                chosen.append(pick)
            attempts += 1
        return chosen

    labels = []
    remaining = {Label.REAL: spec.n_real, Label.FAKE: spec.n_fake}
    while remaining[Label.REAL] or remaining[Label.FAKE]:
        for lab in (Label.REAL, Label.FAKE):
            if remaining[lab]:
                labels.append(lab)
                remaining[lab] -= 1

    articles = []
    for i, label in enumerate(labels):
        body = ". ".join(sentence(label)
                         for _ in range(int(rng.integers(spec.sents_min, spec.sents_max + 1))))
        articles.append(corpus.NewsArticle(
            id=f"a{i:04d}",
            headline=sentence(label),
            body=body + ".",
            label=label,
            publisher_ids=publishers(label),
        ))
    return SynthData(articles=articles, follower_counts=counts, edges=edges,
                     embeddings=embeddings, real_pool=real_pool, fake_pool=fake_pool)


def _other(label):
    return Label.FAKE if label is Label.REAL else Label.REAL


def split_corpus(articles, test_fraction):
    """Stratified deterministic split; the leading slice of each class
    becomes the test set (article order is already i.i.d.)."""
    if not 0.0 <= test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in [0, 1), got {test_fraction}")
    reals = [a for a in articles if a.label is Label.REAL]
    fakes = [a for a in articles if a.label is Label.FAKE]
    n_r = int(round(test_fraction * len(reals)))
    n_f = int(round(test_fraction * len(fakes)))
    test = sorted(reals[:n_r] + fakes[:n_f], key=lambda a: a.id)
    train = sorted(reals[n_r:] + fakes[n_f:], key=lambda a: a.id)
    return train, test


def write_synthetic(data: SynthData, out_dir, test_fraction=0.5) -> dict:
    """Write the full file layout a run needs; returns the path map."""
    os.makedirs(out_dir, exist_ok=True)
    train, test = split_corpus(data.articles, test_fraction)
    paths = {
        "train": os.path.join(out_dir, "train.jsonl"),
        "test": os.path.join(out_dir, "test.jsonl"),
        "publishers": os.path.join(out_dir, "publishers.tsv"),
        "edges": os.path.join(out_dir, "edges.txt"),
        "embeddings": os.path.join(out_dir, "embeddings.txt"),
    }
    corpus.write_corpus(train, paths["train"])
    corpus.write_corpus(test, paths["test"])
    with open(paths["publishers"], "w", encoding="utf-8") as fh:
        for user in sorted(data.follower_counts):
            fh.write(f"{user}\t{data.follower_counts[user]}\n")
    with open(paths["edges"], "w", encoding="utf-8") as fh:
        for follower, followed in data.edges:
            fh.write(f"{follower} {followed}\n")
    corpus.write_embeddings(data.embeddings, paths["embeddings"])
    return paths
