"""``python -m rankbin``: the ``rankbin`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
