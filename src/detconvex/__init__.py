"""Convexity certification for determinant-composed energies on the cone
of symmetric positive definite matrices.

The package holds only ``__version__``; each object has one import path,
its module's (``detconvex.certifier``, ``detconvex.scalarfun``, ...)."""

__version__ = "0.1.0"
