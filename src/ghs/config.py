"""Kept only because perfbench/spans.py imports DEFAULT_CONFIG when it loads."""

DEFAULT_CONFIG = None
