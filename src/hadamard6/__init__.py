"""Exact computational algebra around the order-6 complex Hadamard matrix on
cube roots of unity: its monomial symmetry group, the triple covers of the
alternating and symmetric groups on six points that stabilize it, a
split-quaternion representation intertwined by the matrix itself, and an
explicit outer automorphism of S6 with a synthemes-and-totals cross-check.

The interface is the command line (hadamard6.cli) and its JSON report; code
imports what it needs from the modules, and the package root re-exports
nothing.
"""

__version__ = "0.1.0"
