"""Train CTC recurrent speech recognizers and transfer weights across alphabets."""

from .ctc import (
    beam_search_decode,
    collapse_path,
    corpus_ler,
    ctc_loss,
    edit_distance,
    extend_with_blanks,
    greedy_decode,
)
from .frontend import (
    AudioClip,
    FeatureConfig,
    FeatureMatrix,
    ManifestRow,
    WavFormatError,
    feature_normalize,
    frame_count,
    load_wav,
    mfcc,
    read_feature_cache,
    read_manifest,
    resample,
    save_wav,
    write_feature_cache,
    write_manifest,
)
from .network import (
    ModelConfig,
    ModelParams,
    forward,
    init_params,
    log_softmax,
    recurrent_hidden_outputs,
    tensor_spec,
)
from .synthetic import SynthConfig, make_corpus, symbol_prototype, write_corpus
from .text_labels import (
    Alphabet,
    builtin_alphabet,
    decode,
    encode,
    load_alphabet,
    normalize_transcript,
    overlap_ratio,
    save_alphabet,
)
from .trainer import (
    MetricsRow,
    OptimizerState,
    TrainConfig,
    Utterance,
    evaluate,
    load_dataset,
    momentum_step,
    run_experiment_matrix,
    split_dataset,
    train,
    train_epoch,
)
from .transfer import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    TransferError,
    TransferReport,
    TransferVerificationError,
    VerifyReport,
    checkpoint_from_params,
    params_from_checkpoint,
    read_checkpoint,
    save_checkpoint,
    transfer_weights,
    verify_transfer,
    write_checkpoint,
)

__version__ = "0.1.0"
