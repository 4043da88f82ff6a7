"""Import lotrain before any test module imports numpy, so the suite runs one
BLAS thread per process unless the BLAS variables are set, as the CLI and its
worker processes do."""

import lotrain  # noqa: F401
