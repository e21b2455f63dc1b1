"""``python -m fusionneck``: the same command line as the ``fusionneck`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
