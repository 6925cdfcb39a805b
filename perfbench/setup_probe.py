"""One fresh-process set-up: import divergeflow's CLI, load a config and
build its experiment spec (fundamental-diagram construction included).

    PYTHONPATH=src python3 perfbench/setup_probe.py configs/props.yaml props

Prints the seconds taken.  Only the standard library is loaded before the
clock starts, so numpy and PyYAML imports count as set-up.
"""

import sys
import time


def main():
    config, command = sys.argv[1], sys.argv[2]
    start = time.perf_counter()
    from divergeflow import cli
    from divergeflow.harness import ExperimentKind

    cli.build_spec(cli.load_config(config), ExperimentKind(command))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
