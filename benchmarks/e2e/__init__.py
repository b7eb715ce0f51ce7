"""End-to-end CLI benchmark for the proof checker.

Drives ``python -m repro`` as a black box, one child process at a time,
over seeded inputs built from the registry formulas, and reports
end-to-end metrics (wall, CPU, peak RSS, set-up time) plus per-layer
self times from a separate traced pass.  See ``README.md`` beside this
file for the workloads, metrics and how to run and compare.
"""

import os

# The checkout root (two levels above this package) and the program's
# source tree, which children import through PYTHONPATH.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
