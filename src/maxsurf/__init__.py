"""Zero-mean-curvature surfaces from holomorphic data.

Construct minimal surfaces in Euclidean 3-space and maximal surfaces in
Lorentz-Minkowski 3-space from rational Weierstrass data, take conjugates,
move between the two ambients by the isotropic-curve and graph dualities, and
certify at mesh scale that the conjugate of a maximal graph over a convex
domain is again a graph.

Built-in example data live in :mod:`maxsurf.catalog`; the command-line entry
point is :mod:`maxsurf.cli`.
"""
