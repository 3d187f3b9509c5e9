"""Fake/real news classification from article text and publisher history."""

from .corpus import (
    CorpusTokens,
    Label,
    NewsArticle,
    Thresholds,
    TokenizedArticle,
    compute_thresholds,
    load_corpus,
    load_embeddings,
    load_tokenized,
    split_article,
    token_ids,
)
from .fusion import Model, VARIANTS, init_model, predict_batch
from .pipeline import (
    EvalReport,
    RunConfig,
    SynthSpec,
    ablate,
    cold_start_perturb,
    coldstart_experiment,
    eval_report,
    evaluate,
    export_stats,
    gen_synthetic,
    load_config,
    prepare_data,
    train,
)
from .slcnn import required_hcbs, slcnn_apply
from .social import (
    FollowerGraph,
    explicit_rows,
    follower_count_influence,
    influence_table,
    tally_credit,
    user_influence,
)

__version__ = "0.1.0"
