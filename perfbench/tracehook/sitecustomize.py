"""Loaded at interpreter start-up when this directory is on ``PYTHONPATH``.

The benchmark puts it there only for the traced pass, so that CLI
processes, their ``spawn`` executor children and fleet workers all
record spans (see ``benchtrace``).
"""

import benchtrace

benchtrace.install_from_env()
