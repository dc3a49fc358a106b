"""``python -m lasched``: the same command line as the installed ``lasched`` script."""

from .cli import main

if __name__ == "__main__":
    main()
