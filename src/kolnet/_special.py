"""scipy's ndtri and ndtr without scipy.special's package import, whose array-API
shim clones numpy: most of a CLI process's start-up.  Their extension loads
alone under a bare stand-in parent that leaves sys.modules again, so a later
``import scipy.special`` runs in full and hands out these same ufunc objects.
"""

import os
import sys
import types


def _load():
    if "scipy.special" not in sys.modules:
        import scipy

        sys.modules["scipy.special"] = bare = types.ModuleType("scipy.special")
        bare.__path__ = [os.path.join(p, "special") for p in scipy.__path__]
        try:
            from scipy.special._ufuncs import ndtr, ndtri

            return ndtri, ndtr
        except ImportError:
            pass  # this scipy's _ufuncs needs its package: import that in full
        finally:
            del sys.modules["scipy.special"]
    from scipy.special import ndtr, ndtri  # already imported, or the fallback

    return ndtri, ndtr


ndtri, ndtr = _load()
