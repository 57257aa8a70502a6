"""``python -m rabivar``: the same command line as the ``rabivar`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
