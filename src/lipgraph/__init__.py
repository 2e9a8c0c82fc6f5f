"""Exact construction and certification of a rough intrinsic Lipschitz graph.

The package builds a self-similar 1/2-Hölder profile on [0, 1] from a
three-branch iterated function system, lifts it to an intrinsic graph
over the vertical subgroup of a Heisenberg group crossed with a line,
and machine-verifies the quantitative properties that make the graph
intrinsically Lipschitz yet nowhere intrinsically differentiable: the
Hölder bound, scale-invariant quotient oscillation with explicit
constants, the cone condition, and divergence of blow-ups.  All
verdicts come from exact rational arithmetic and certified interval
enclosures; no floating point touches any decision.
"""

__version__ = "0.1.0"
