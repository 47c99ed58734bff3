"""numpy, imported on the first attribute read.

The exact commands (schur, recurrence, check-identity, minor-det --nvars)
never touch numpy, and importing it costs more than the rest of the
package's start-up together.  So the numeric modules take np from here:
numpy's module object behind importlib.util.LazyLoader, the standard
library's lazy-import recipe.  Importing this module only locates numpy;
numpy's own import runs the first time anything reads an attribute of np,
and np is then numpy itself.  A missing numpy still raises ImportError
here, and when numpy is already imported np is that module.
"""

import importlib.util
import sys


def _lazy_import(name: str):
    """The module name, executed on its first attribute read."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ImportError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
