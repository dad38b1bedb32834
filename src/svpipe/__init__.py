"""Speaker-verification pipeline at desk scale.

Classic chain: frontend normalization/expansion -> diagonal GMM background
model -> total-variability i-vectors -> mean/LDA/length-norm -> generative or
discriminative PLDA scoring. Neural chain: a statistics network replaces the
background-model posteriors and an embedding network replaces i-vector
extraction; both can then be trained jointly with the discriminative backend,
end to end.
"""

from . import (
    corpus,
    dplda,
    e2e,
    errors,
    fileio,
    frontend,
    gmm,
    ivecnet,
    ivector,
    metrics,
    netcore,
    plda,
    recipe,
    statsnet,
)

__all__ = [
    "corpus",
    "dplda",
    "e2e",
    "errors",
    "fileio",
    "frontend",
    "gmm",
    "ivecnet",
    "ivector",
    "metrics",
    "netcore",
    "plda",
    "recipe",
    "statsnet",
]

__version__ = "0.1.0"
