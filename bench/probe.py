"""Set-up probe: a fresh interpreter imports cosym3 and loads every input once.

Usage: ``python3 bench/probe.py SRC_DIR SOURCE...`` where each SOURCE is
``--input=PATH`` or ``--builtin=NAME``.  The caller times the whole process,
so the measured set-up includes interpreter start, ``import cosym3`` and
parsing, as a command-line user pays them.
"""

import json
import sys


def main() -> None:
    src, *sources = sys.argv[1:]
    sys.path.insert(0, src)
    from cosym3.cli import parse_structure_file
    from cosym3.models import builtin

    for source in sources:
        flag, value = source.split("=", 1)
        if flag == "--builtin":
            builtin(value)
        else:
            with open(value, encoding="utf-8") as fh:
                parse_structure_file(json.load(fh))


if __name__ == "__main__":
    main()
