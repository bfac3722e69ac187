"""One set-up of a workload process, timed from outside by run.py.

Imports samplingdyn from ``src/``, loads every config named in the list
file given as the only argument, and builds each environment and its
response functions; then exits.  Run from the checkout root.
"""

import sys

sys.path.insert(0, "src")

from samplingdyn import config  # noqa: E402


def main(list_file: str) -> None:
    with open(list_file, encoding="utf-8") as fh:
        paths = fh.read().split()
    for path in paths:
        conf = config.load_config(path)
        sweep = conf.get("sweep", {}).get("type")
        if sweep == "theta-mass":
            config.parse_game(conf["environment"])
            continue
        if sweep == "u":
            config.parse_theta(conf["environment"]["theta"])
            continue
        spec = config.parse_environment(conf["environment"])
        spec.response_system()
        if spec.kind == "sampling":
            env = spec.environment
            env.single_response() if spec.one_population else env.pair()


if __name__ == "__main__":
    main(sys.argv[1])
