"""Shadow removal with mask-aware state-space scanning.

The package covers the full loop: a small reverse-mode autodiff engine,
selective scan kernels, shadow-first scan orders, the dual-scale network,
training, metrics, and a batch CLI.
"""

__version__ = "0.1.0"
