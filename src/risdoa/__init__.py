"""Direction finding through a 1-bit programmable reflecting surface.

The package simulates a single-channel receiver behind a practical
reflecting surface (element coupling, reflection mismatch), reconstructs
what an ideal surface would have measured with a small dense network, and
estimates two-dimensional arrival angles gridlessly through structured
low-rank completion. Classical grid methods and a numeric error bound are
included for benchmarking.
"""

__version__ = "0.1.0"
