"""Finite sum tables, relational algebras, their marked complexes, and the
decision procedures connecting them.

The library covers: validation of (pseudo) effect algebra sum tables and of
relational algebras against the monoid, comonoid, and compatibility laws;
the passage from tables to relational algebras and on to edge-marked
2-truncated complexes; recognition of such complexes by unique marked horn
filling; classification (commutativity, cancellativity, orthoalgebra and
orthomodularity flags, braiding) cross-checked against order-theoretic
oracles; first homology and universal groups through Smith normal form;
mapping complexes, hom objects, and the evaluation fibration; exhaustive
enumeration of small structures; and a JSON exchange format with a builtin
catalog, all behind the ``fa`` command line tool.

The package namespace holds the library API the README shows; everything
else is imported from its submodule: ``from relfa.catalog import chain``,
``from relfa.nerve import cross_validate``.  Use that form: ``relfa.nerve``
is the function ``nerve``, not the module, so attribute access fails there.
"""

__version__ = "0.1.0"

from .algebra import InvariantError, to_relfa, validate
from .catalog import boolean
from .complexes import check_lifting, horn
from .homology import h1_universal_group
from .nerve import nerve, recognize_nerve
from .ortho import classify
