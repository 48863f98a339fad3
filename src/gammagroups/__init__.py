"""Exact tools for finite matrix groups generated by gamma-like matrices."""

__version__ = "0.1.0"
