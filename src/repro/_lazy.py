"""Lazy package surfaces: a package's public names load on first use.

Each ``repro`` package ``__init__`` declares its public names as a map
from the submodule that defines them to the names, and hands it to
:func:`lazy_exports`.  Importing the package then imports nothing else;
the first read of a name (``repro.make_dragonfly``, ``from repro.network
import SweepCache``) imports the defining module through the package's
PEP 562 ``__getattr__`` and stores the value in the package, so later
reads are plain attribute lookups.  An entry point thus loads only the
modules it runs: a warm cache read never imports the simulator, the
array engine or the certifier.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` of ``package``.

    ``exports`` maps a module name relative to ``package`` (``".cache"``,
    ``"..settings"``) to the names it defines.  A name that is the
    module's own last component (``".vc_assignment": ("vc_assignment",)``)
    exports the module itself.
    """
    home: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(module, package)
        if module.rpartition(".")[2] != name:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, list(home)
