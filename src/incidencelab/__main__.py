"""``python -m incidencelab``: the same entry point as the ``incidencelab`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
