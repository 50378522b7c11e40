"""Integral equivariant Chow ring presentations for quadric stacks.

Exact symbolic machinery: sparse integer polynomials with a weighted grading,
symmetric-function rewriting into Chern classes, torus-localization
pushforwards, per-degree integer-lattice ideal arithmetic, and the pipelines
assembling them into ring presentations.

Each name is imported from the module that defines it (``eqchow.poly``,
``eqchow.pipeline``, ...); the package itself imports none of them, so
``import eqchow.<module>`` loads only that module and what it imports.
"""

__version__ = "0.1.0"
