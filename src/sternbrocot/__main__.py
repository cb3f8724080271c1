"""The ``sternbrocot`` command: ``python -m sternbrocot`` and the console script."""

import gc


def main() -> None:
    # What the imports build (modules, classes, numpy's tables) mostly lives
    # until exit, so collector passes over it free next to nothing: import
    # with the collector off, freeze what the imports built, and run the
    # command with the collector back on.  Later full collections skip the
    # frozen objects.
    gc.disable()
    from .cli import main as command
    gc.freeze()
    gc.enable()
    command()


if __name__ == "__main__":
    main()
