"""Run the catbreed command line with spans recorded around the package's
public functions, then write the spans to a JSON file.

    python bench/cli_traced.py SPANS.json <catbreed.cli arguments...>

Behaves like ``python -m catbreed.cli <arguments...>`` otherwise, exit code
included.
"""

import sys

import tracing

import catbreed.cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return catbreed.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
