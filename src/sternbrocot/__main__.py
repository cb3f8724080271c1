"""The ``sternbrocot`` command: ``python -m sternbrocot`` and the console script."""

import gc
import sys


def main() -> None:
    # What the imports build (modules, classes, numpy's tables) mostly lives
    # until exit, so collector passes over it free next to nothing: import
    # with the collector off, freeze what the imports built, and run the
    # command with the collector back on.  Later full collections skip the
    # frozen objects.
    gc.disable()
    from .cli import run
    gc.freeze()
    gc.enable()
    code = run()
    # Shutdown's collections would only free memory the OS reclaims anyway;
    # frozen objects sit in the permanent generation, which they skip.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
