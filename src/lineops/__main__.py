"""``python -m lineops``: the same command line as the ``lineops`` script."""
from .cli import main

if __name__ == "__main__":
    main()
