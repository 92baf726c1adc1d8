"""Exact-arithmetic verification engine for superelliptic current algebras.

Computes Kahler-differential reductions, structure-constant polynomial
families, centrally extended brackets, and symbolic free-field operator
products, entirely in exact rational-function arithmetic, and mechanically
confirms or flags each identity it checks.

The package re-exports nothing and imports none of its modules: import the
layer you need, e.g. ``from secalg import kahler``.
"""

__version__ = "0.1.0"
