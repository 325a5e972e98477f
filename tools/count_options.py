"""Count the function parameters with a default value in src/hjj.

    python3 tools/count_options.py [SRC_DIR]

Each parameter with a default is a value a caller may set or leave, so
the count is the number of settable function options. Prints one line
per module and the total. Parses the source with `ast` and imports
nothing from hjj.
"""

from __future__ import annotations

import ast
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def count(path):
    """Parameters with a default in every function of the file at path."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    n = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            n += len(a.defaults)
            n += sum(d is not None for d in a.kw_defaults)
    return n


def main(argv):
    src = argv[0] if argv else os.path.join(HERE, os.pardir, "src", "hjj")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            n = count(os.path.join(src, name))
            total += n
            print(f"{name:<20} {n:4d}")
    print(f"{'total':<20} {total:4d}")


if __name__ == "__main__":
    main(sys.argv[1:])
