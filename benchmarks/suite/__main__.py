"""``python -m benchmarks.suite [run|aggregate|compare|calibrate] ...``

``run`` is the default command, so the plain
``python -m benchmarks.suite --workload W --seed S --seconds T --trace 0``
form works too.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from benchmarks.suite import calibrate, harness, report


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-"):
        command, rest = argv[0], argv[1:]
    else:
        command, rest = "run", argv
    commands = {
        "run": harness.run_command,
        "aggregate": report.aggregate_command,
        "compare": report.compare_command,
        "calibrate": calibrate.calibrate_command,
        harness.CHILD_COMMAND: harness.child_command,
    }
    if command not in commands:
        print(f"unknown command {command!r}; use one of run, aggregate, compare, calibrate",
              file=sys.stderr)
        return 2
    return commands[command](rest)


if __name__ == "__main__":
    sys.exit(main())
