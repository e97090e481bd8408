"""Workbench for the quantum process calculi CQP- and qCCS.

Subpackages:

* ``qproc.quantum``   named-register linear algebra (states, gates, super-operators)
* ``qproc.cqp``       CQP- terms, parser, type system and reduction semantics
* ``qproc.qccs``      qCCS terms, parser, well-formedness and labelled semantics
* ``qproc.encode``    the translation from CQP- configurations into qCCS
* ``qproc.criteria``  bounded exploration and the encodability criteria checks
* ``qproc.cli``       the ``qproc`` command line
* ``qproc.protocols`` bundled protocol sources (teleportation, probes)
"""

__version__ = "0.1.0"
