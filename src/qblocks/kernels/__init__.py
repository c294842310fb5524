"""Packed-key product kernels, in pure Python (see _pykernels)."""

# The package has one kernel backend.  perfbench/run.py reads this name to
# record which backend a benchmark ran on, so it stays.
BACKEND = "py"
