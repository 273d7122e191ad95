"""Learning from bags of candidate labels.

Submodules: :mod:`plbag.core` (domain types and probability arithmetic),
:mod:`plbag.knn_index` (exact neighbor retrieval), :mod:`plbag.plaknn`
(the adaptive label-elimination classifier), :mod:`plbag.baselines`
(fixed-k and threshold-qualification classifiers), :mod:`plbag.synth`
(scenario generators), :mod:`plbag.theory` (learnability diagnostics), and
:mod:`plbag.preprocess` (neighbor-friendly feature pipelines).  The
experiment harness and CLI, :mod:`plbag.bench_cli`, is imported on its own.
"""

from . import baselines, core, knn_index, plaknn, preprocess, synth, theory
from .core import (
    Bag,
    BagGenMatrix,
    DiscreteDistribution,
    LabelDistribution,
    LabelSpace,
    PartialDataset,
    PartialExample,
)
from .plaknn import PlaknnConfig

__version__ = "0.1.0"

__all__ = [
    "Bag",
    "BagGenMatrix",
    "DiscreteDistribution",
    "LabelDistribution",
    "LabelSpace",
    "PartialDataset",
    "PartialExample",
    "PlaknnConfig",
    "baselines",
    "core",
    "knn_index",
    "plaknn",
    "preprocess",
    "synth",
    "theory",
]
