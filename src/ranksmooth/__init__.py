"""ranksmooth: exact and sigmoid-smoothed average precision for retrieval.

Exact AP / mAP / Recall@K evaluation, a differentiable AP relaxation with
hand-derived gradients, triplet and contrastive baselines, a linear
encoder with Adam, synthetic cluster data, and a deterministic training
and ablation harness with a CLI front end. The package exports each
library module's __all__; the cli and plots modules stay out.
"""

from .baselines import *
from .data import *
from .encoder import *
from .experiments import *
from .linalg import *
from .ranking import *
from .smoothap import *

__version__ = "0.1.0"
