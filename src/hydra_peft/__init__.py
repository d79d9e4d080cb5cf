"""Desk-scale parameter-efficient fine-tuning lab.

Adapter schemes over frozen weights (plain low-rank pairs and the shared-A
multi-expert form with a trainable softmax router), a corpus-clustering
pipeline that picks the expert count, a small deterministic training stack,
and the analyses that make the design's claims checkable on a laptop.
"""

__version__ = "0.1.0"
