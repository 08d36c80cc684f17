"""Ad-install prediction for tabular impression logs.

The package covers the full batch workflow: schema-driven ingestion of
delimited files, train-only preprocessing (categorical re-coding with a
reserved missing code, imputation, min-max scaling), a multi-input
embedding + MLP binary classifier with hand-derived gradients, the
split / early-stop / full-retrain training protocol, and the standard
binary-classification metrics block.
"""

from .errors import (
    AdinstallError,
    ArtifactError,
    DataFormatError,
    NonFiniteGradientError,
    PipelineMismatchError,
    SchemaError,
)
from .ingest import RawTable, detect_constant_features, load_table, write_table
from .metrics import ConfusionMatrix, MetricsReport, confusion, log_loss, nir, report
from .network import (
    NetworkConfig,
    NetworkParams,
    RowGrad,
    backward,
    embedding_width_rule,
    forward,
    init_network,
    load_params,
    save_params,
)
from .optim import OptimizerState, optimizer_step
from .prep import (
    ImputerModel,
    PrepConfig,
    PreparedDataset,
    PrepPipeline,
    ScalerParams,
    Vocabulary,
    apply_minmax,
    fit_imputer,
    fit_minmax,
    fit_pipeline,
    fit_vocabulary,
    impute,
    load_pipeline,
    save_pipeline,
)
from .schema import FeatureSchema, read_schema_file, write_schema_file
from .synth import SynthSpec, generate
from .training import (
    TrainConfig,
    TrainingHistory,
    predict,
    retrain_full,
    split_train_val,
    train_with_early_stopping,
)

__version__ = "0.1.0"
