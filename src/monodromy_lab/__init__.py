"""Monodromy data of the small quantum cohomology of LG(2,4).

The package computes the quadruple (mu, R, S, C) attached to the first
structure connection at the semisimple point q=1 -- the grading operator,
the classical c1-cup matrix, the Stokes matrix and the central connection
matrix -- entirely from convergent representations of the solutions, and
verifies the refined Dubrovin conjecture: an explicit braid-group letter
and sign change carry (S, C) to the inverse Euler matrix and the
Gamma-basis matrix of a full exceptional collection on the derived side.
"""

__version__ = "0.1.0"
