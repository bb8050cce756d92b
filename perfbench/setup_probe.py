"""Set-up work a fresh process pays: import tailorder and build the handles.

Run by ``run.py`` in a new interpreter for the ``setup_s`` metric:

    python3 perfbench/setup_probe.py <workload> <seed> <table.csv>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import plans  # noqa: E402  (imports tailorder)


def main(argv: list[str]) -> int:
    workload, seed, table_path = argv[0], int(argv[1]), argv[2]
    for op in plans.Plan(workload, seed, table_path).cycle(0):
        plans.build_handles(op)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
