"""Exact computational algebra around the order-6 complex Hadamard matrix on
cube roots of unity: its monomial symmetry group, the triple covers of the
alternating and symmetric groups on six points that stabilize it, a
split-quaternion representation intertwined by the matrix itself, and an
explicit outer automorphism of S6 with a synthemes-and-totals cross-check.

The interface is the command line (hadamard6.cli) and its JSON report; code
imports what it needs from the modules, and the package root re-exports
nothing.

Importing the package registers every submodule but cli with
importlib.util.LazyLoader: each is in sys.modules and is an attribute of the
package from the start, and is compiled and run only when one of its
attributes is first read.  So a command compiles only the modules it
reaches.  cli is left out because ``python -m hadamard6.cli`` runs it as
__main__, and runpy warns about a module that is already in sys.modules.
"""

import importlib.util
import sys

__version__ = "0.1.0"

for _name in ("autgroup", "brep", "eisenstein", "elements", "gf4", "groups", "matrices",
              "monomial", "outer", "perms", "report"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module
