"""Run one ``nvmag`` command with layer tracing and save its spans.

Usage: ``python traced_cli.py SPANS_JSON COMMAND [ARGS...]``; the package
must be importable (``PYTHONPATH=src``).  Standard output and the exit
code are those of ``nvmag COMMAND ARGS``; the spans and counters go to
``SPANS_JSON``, with the whole in-process command as the span
``cli.<command>``.  Clipped-rate warnings are counted, not printed.
"""

import json
import sys
import warnings

import layers
from nvmag import cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = layers.Tracer()
    layers.install(tracer)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        index = tracer.begin(f"cli.{argv[0]}")
        code = cli.main(argv)  # reports every exception as exit 1 or 2
        tracer.end(index)
    tracer.count("readout.clipped_rate_warnings",
                 layers.clipped_rate_warnings(caught))
    with open(spans_path, "w") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
