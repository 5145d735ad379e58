"""Exact and numerical tools for Weyl-Clifford algebras T(n, l).

Generators satisfy t_j t_k = zeta t_k t_j for j < k and t_k^l = 1 with
zeta a primitive l-th root of unity; at l = 2 this is the complex
Clifford algebra.  The package provides exact cyclotomic arithmetic,
normal-form symbolic algebra with the power-sum (Lame) identity,
deformed binomial coefficients, tensor-product matrix representations,
commutator-form transport over the rationals, and a CLI.

Submodules, and the public names listed in their __all__, load on
first use.  The exact modules (cyclotomic, algebra, qbinom, sampling)
run without numpy; it loads with matrep, commforms, algebra.to_matrix
and the CLI's numerical subcommands.
"""

import importlib

# numpy-free modules first, so an exact-track name never loads numpy
_EXPORTING = ("cyclotomic", "algebra", "qbinom", "sampling", "matrep", "commforms")


def __getattr__(name: str):
    """Load a submodule, or a public name from the first __all__ listing it."""
    if not name.startswith("_"):
        if name in _EXPORTING or name == "cli":
            return importlib.import_module(f"{__name__}.{name}")
        for sub in _EXPORTING:
            module = importlib.import_module(f"{__name__}.{sub}")
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
