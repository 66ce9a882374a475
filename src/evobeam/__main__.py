import gc
import importlib.util
import sys


def _defer(parent, name):
    """Make ``parent.name`` a module that loads on its first attribute read,
    unless it is loaded already or cannot be found."""
    full = f"{parent.__name__}.{name}"
    spec = None if full in sys.modules else importlib.util.find_spec(full)
    if spec is not None:
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(parent, name, module)


# scipy's array-API shim reads every public attribute of numpy, which would
# import these submodules; no command reads them, so they load only if
# something reads one of their attributes. numpy.ma stays unread only while
# src/ calls neither sp.diags nor a numpy set routine: both reach np.unique,
# which reads np.ma.is_masked.
DEFERRED = ("testing", "f2py", "ma", "polynomial", "char", "ctypeslib", "rec", "strings")

# The imported modules live until exit: load them with the collector off and
# freeze them, so no collection, at import or at shutdown, walks them again.
gc.disable()
import numpy

for name in DEFERRED:
    _defer(numpy, name)
from .cli import main

gc.freeze()
gc.enable()

if __name__ == "__main__":
    raise SystemExit(main())
