"""Two-modality fake-vs-real classification with attention and gating.

The package trains a small classifier over paired text/image feature
vectors. Both modalities are projected into a shared space, exchanged
through bi-directional cross-attention with residuals, reweighted by a
learned per-record gate, and classified by a two-layer head. Everything --
reverse-mode differentiation, the optimizer, file formats -- is built on
plain numpy and is deterministic given seeds.
"""

__version__ = "0.1.0"
