"""Time, in a fresh interpreter, importing gasprover and parsing a workload's
inputs. Prints the seconds.

Usage: python3 bench/setup_probe.py WORKLOAD SEED
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cases  # noqa: E402  (the benchmark's own module; does not import gasprover)


def main() -> None:
    inputs = cases.build(sys.argv[1], int(sys.argv[2]))
    start = time.perf_counter()
    from gasprover import parse_rde

    for case in inputs:
        parse_rde(case.rde)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
