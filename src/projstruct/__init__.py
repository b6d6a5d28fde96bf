"""Penalized selection over projection-structure families.

Library layout:
  linalg      dense projections onto column spans
  structures  the structure families (subspaces, majorants, enumeration)
  selection   penalized selectors, brute-force oracle, nested size paths
  ddm         structure measures, model-averaging means, conditional draws
  oracle      oracle rates, tau-oracles, excessive-bias diagnostics, constants
  balls       radii of the EBR and sqrt(N)-margin confidence balls
  noise       noise streams and the A1-A4 condition checkers
  experiments Monte Carlo harness behind the CLI
  cli         `projstruct select|simulate|check`
"""

__version__ = "0.1.0"
