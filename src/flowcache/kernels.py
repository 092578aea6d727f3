"""The four compiled scipy routines flowcache calls, loaded without their
packages.

    erf                    scipy.special._special_ufuncs    (autodiff's gelu)
    linear_sum_assignment  scipy.optimize._lsap             (metrics' 2-D W2)
    cdist_sqeuclidean      scipy.spatial._distance_pybind   (W2 cost matrix)
    cdist_euclidean        scipy.spatial._distance_pybind   (energy distance)

Each is the object the public name reaches: `scipy.special.erf` is
`_special_ufuncs.erf`, `scipy.optimize.linear_sum_assignment` is
`_lsap.linear_sum_assignment`, and `scipy.spatial.distance.cdist(a, b,
"sqeuclidean")` (or "euclidean") turns its inputs into arrays, checks their
shapes and calls `_distance_pybind.cdist_sqeuclidean(a, b, out=None)`, so
every value is bit-equal to the public call's. flowcache's callers pass 2-D
float64 arrays of one feature dimension, which the public shape checks
would accept.

`_extension` loads each compiled module by itself, from its file under the
installed scipy, and runs none of `scipy.special`, `scipy.optimize` or
`scipy.spatial`'s `__init__`. Those import `array_api_compat`,
`numpy.f2py`, `numpy.testing` and dozens of submodules flowcache never
calls: importing the three packages took 0.29-0.42 s and 49 MB of peak RSS
per process, loading the three extensions 3-4 ms and 1.7 MB (scipy 1.17.1,
numpy 2.4.6, Python 3.11, 2-vCPU x86 VM). The layout is verified at
scipy 1.17 (tests/test_kernels.py compares each routine's output with the
public name's). If a later scipy moves or renames one of these modules or
routines, importing this module raises ImportError naming the missing module
and the installed scipy version; there is no fallback to the public
packages.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from types import ModuleType


def _missing(what: str) -> ImportError:
    from importlib.metadata import PackageNotFoundError, version

    try:
        installed = f"scipy {version('scipy')}"
    except PackageNotFoundError:
        installed = "no installed scipy"
    return ImportError(f"{what} not found in {installed}; flowcache loads "
                       f"scipy's compiled routines by their location, "
                       f"verified at scipy 1.17")


def _extension(package: str, name: str) -> ModuleType:
    """Load the compiled module scipy.<package>.<name> without importing
    scipy or scipy.<package>."""
    fullname = f"scipy.{package}.{name}"
    scipy = importlib.util.find_spec("scipy")
    loaders = (importlib.machinery.ExtensionFileLoader,
               importlib.machinery.EXTENSION_SUFFIXES)
    for base in scipy.submodule_search_locations if scipy else ():
        finder = importlib.machinery.FileFinder(os.path.join(base, package),
                                                loaders)
        spec = finder.find_spec(fullname)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise _missing(f"compiled module {fullname}")


def _routine(module: ModuleType, name: str):
    try:
        return getattr(module, name)
    except AttributeError:
        raise _missing(f"{module.__name__}.{name}") from None


_special_ufuncs = _extension("special", "_special_ufuncs")
_lsap = _extension("optimize", "_lsap")
_distance_pybind = _extension("spatial", "_distance_pybind")

erf = _routine(_special_ufuncs, "erf")
linear_sum_assignment = _routine(_lsap, "linear_sum_assignment")
cdist_sqeuclidean = _routine(_distance_pybind, "cdist_sqeuclidean")
cdist_euclidean = _routine(_distance_pybind, "cdist_euclidean")
