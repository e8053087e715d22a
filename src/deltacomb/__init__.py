"""Band structures and regularized vacuum energies of 1-D point-potential combs.

The comb is a lattice (spacing a) of identical delta-delta' potentials with
strengths (w0, w1), equivalently the reduced couplings (gamma, Omega).  The
package computes the single-scatterer amplitudes, the Bloch band structure,
and the subtracted (finite) vacuum energy per unit cell, plus the analytic
limiting cases used to cross-check everything.

Each module's __all__ is its public surface; the package re-exports them all.
`import deltacomb` loads no submodule: the first read of a public name, of
__all__ or of dir() imports the five library modules (PEP 562), and reading a
submodule's own name (deltacomb.energy, or `from deltacomb import cli`)
imports just that module.  So a CLI run, which imports deltacomb.cli, loads
only what its command uses.
"""

__version__ = "0.1.0"

_MODULES = ("errors", "quadrature", "scattering", "bands", "energy")
_SUBMODULES = (*_MODULES, "cli", "sweeps", "verification")


def __getattr__(name: str) -> object:
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    names = globals()
    if "__all__" not in names and (name == "__all__" or not name.startswith("_")):
        modules = [import_module(f"{__name__}.{m}") for m in _MODULES]
        for module in modules:
            names.update({n: getattr(module, n) for n in module.__all__})
        names["__all__"] = ["__version__", *[n for m in modules for n in m.__all__]]
    try:
        return names[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
