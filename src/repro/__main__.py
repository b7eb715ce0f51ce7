"""``python -m repro`` entry point."""

import gc
import sys

from repro.cli import main

if __name__ == "__main__":
    # Move every object the imports created into the permanent
    # generation: later collections, and the teardown at exit, then
    # skip them.  This sits here and not in ``main`` so in-process
    # callers (tests, embedding programs) never freeze their own
    # objects.
    gc.freeze()
    sys.exit(main())
