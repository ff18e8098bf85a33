"""Training, adaptive multi-bit binary quantization, and verified quantized
inference for a compact 1-D ECG arrhythmia classifier."""

__version__ = "0.1.0"

from .data import (
    Dataset,
    SplitSpec,
    load_dataset,
    normalize_dataset,
    save_dataset,
    split,
    synth_generate,
)
from .net import (
    Network,
    NetworkSpec,
    TrainConfig,
    TrainResult,
    default_ecgnet_spec,
    flatten_params,
    load_checkpoint,
    out_length,
    param_counts,
    save_checkpoint,
    train,
)
from .quantizer import (
    AlqConfig,
    Groups,
    QuantModel,
    alq_pipeline,
    prune_coordinates,
    score_coordinates,
)
from .bitpack import (
    MemoryReport,
    deserialize,
    injected_memory_report,
    memory_report,
    serialize,
)
from .qinfer import dequantize

# the metrics() operation itself stays at alqecg.metrics.metrics so the
# submodule name is not shadowed
from .metrics import ConfusionMatrix, MetricsReport, SweepPoint, confusion, evaluate, sweep
