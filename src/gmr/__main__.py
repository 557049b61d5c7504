"""``python -m gmr``: the ``gmr`` command line."""

from .cli import entrypoint

entrypoint()
