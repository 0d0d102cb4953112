"""``python -m strfn`` and the ``strfn`` script: import the command's layer,
then run the CLI.

With no bytecode cache every ``strfn`` module is compiled from source,
and compiling the largest module a run needs sets its peak memory.
Compiled first, while the heap is smallest, the layer leaves memory that
the CLI, the spec codecs and the argument parser then reuse, so a run
peaks lower than when the layer is imported by its handler.  ``cli``
imports no layer itself, so each command compiles only the layers it
runs (``strfn._COMMAND_LAYERS``).
"""

import importlib
import sys

from . import _COMMAND_LAYERS

if len(sys.argv) > 1 and sys.argv[1] in _COMMAND_LAYERS:
    importlib.import_module(f".{_COMMAND_LAYERS[sys.argv[1]]}", __package__)

from .cli import main  # noqa: E402  (after the layer; see above)

if __name__ == "__main__":
    raise SystemExit(main())
