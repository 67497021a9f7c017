"""Comparison systems of Table 3: the Encore Multimax configuration
(the sequential baselines are ``mode="sequential"`` compiles)."""

from repro.baselines.encore import encore_config

__all__ = ["encore_config"]
