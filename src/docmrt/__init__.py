"""Desk-scale laboratory for document-level minimum risk training."""

from .metrics import (
    CostKind,
    MetricScore,
    corpus_bleu,
    doc_cost,
    doc_ter,
    gleu,
    sentence_bleu_smoothed,
    seq_cost,
    ter,
)
from .model import (
    ModelParams,
    ScoredHypothesis,
    beam_decode,
    enumerate_output_space,
    init_params,
    load_checkpoint,
    log_prob,
    log_prob_grad,
    mle_loss_grad,
    save_checkpoint,
    weighted_log_prob_grad,
)
from .mrt import (
    RiskEstimate,
    TrainConfig,
    doc_mrt_grad,
    exact_risk,
    exact_risk_grad,
    fd_gradient_check,
    finetune,
    seq_mrt_grad,
)
from .sampling import (
    SampledDocument,
    SampleSet,
    build_documents_ordered,
    build_documents_random,
    draw_sample_set,
    order_samples,
)
from .harness import (
    ExperimentReport,
    TaskSpec,
    generate_synthetic_corpus,
    make_batches,
    run_experiment,
    score_corpus,
)
from .textcore import (
    DocumentBatch,
    Sentence,
    Vocabulary,
    build_vocab,
    decode,
    encode,
    read_document_corpus,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
