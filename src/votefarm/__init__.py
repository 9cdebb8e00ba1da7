"""Software-implemented fault tolerance by redundant voting.

A farm of N voters collects one value per participant over a
turn-taking broadcast with timeout-based fault detection, votes on the
collected slot vector with a metric-space algorithm, and exposes a
FILE-like client handle per user module.  Farms compose into
multi-stage pipelines that restore corrupted stage outputs, and a
simulation harness injects faults and measures the result.
"""

__version__ = "0.1.0"
