"""Comparative opinion summarization via collaborative decoding."""

__version__ = "0.1.0"
