"""``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python serve_traced.py --spans OUT serve [repro serve args...]``

Installs :class:`layers.Recorder`, runs ``repro.__main__.main`` with the
remaining arguments, and at exit writes the spans and the dataset-cache
counters to ``OUT``.
"""

from __future__ import annotations

import argparse
import json
import sys

import layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    args, serve_argv = parser.parse_known_args()

    recorder = layers.Recorder().install()
    from repro.__main__ import main as repro_main
    from repro.workloads import datacache

    code = repro_main(serve_argv)
    recorder.uninstall()
    with open(args.spans, "w", encoding="utf-8") as handle:
        json.dump({"snapshot": recorder.snapshot(), "datacache": datacache.stats()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
