"""Time-aware music artist preference modeling and evaluation.

bllrec models per-user listening habits with the ACT-R base-level
activation (frequency plus recency under power-law decay), groups users
by how mainstream their taste is, and evaluates the activation-based
ranking against popularity, recency and collaborative-filtering
baselines under a per-user time-based split with recall/precision@k.

The stages are the modules ``ingest``, ``profiling``, ``split``,
``recommend`` and ``evaluation``, wired together by ``cli``; import
names from those modules.
"""

__version__ = "0.1.0"
