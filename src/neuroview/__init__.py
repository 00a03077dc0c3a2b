"""Recurrent sequence classifiers with a per-timestep linear readout.

The library trains simple RNN, GRU, and LSTM encoders from scratch
(analytic backpropagation through time, no autodiff framework) and
attaches one of three classifier heads: last hidden state, pooled hidden
states, or the per-timestep global linear readout whose weights expose how
much each timestep contributes to each class.
"""

from .linalg import sigmoid
from .cells import (
    CellKind,
    InitKind,
    InitScheme,
    SequenceTrace,
    cell_backward,
    cell_forward,
    init_params,
    named_views,
    pack,
    param_shapes,
    scheme_matrix,
    sequence_backward,
    sequence_forward,
    stack_cells,
)
from .network import (
    EncoderConfig,
    ForwardTrace,
    HeadKind,
    Model,
    encode,
    head_forward,
    init_head,
    network_backward,
)
from .train import (
    AdamState,
    EvalReport,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    build_model,
    eval_report,
    evaluate,
    fit,
    param_tree,
    save_history_csv,
    softmax_xent,
)
from .data import (
    DataSet,
    load_ucr,
    pad_dataset,
    save_ucr,
    synth_separable,
)
from .interpret import (
    AblationMode,
    AblationTarget,
    CounterfactualResult,
    class_similarity,
    export_report,
    rank_timesteps,
    sweep,
    time_analysis,
    weight_map,
)

__version__ = "0.1.0"
