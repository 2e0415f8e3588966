"""Cusp-profile normalization, field extension, and Sobolev-norm quadrature."""

__version__ = "0.1.0"
