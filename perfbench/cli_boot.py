"""Run the densecode CLI in this process with the benchmark's spans installed.

Usage: python perfbench/cli_boot.py SPAN_FILE CLI_ARGS...

Writes the recorder's aggregates to SPAN_FILE after ``main`` returns and
exits with the CLI's exit code.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
from densecode import cli  # noqa: E402


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.SpanRecorder()
    with spans.Tracer(recorder):
        code = cli.main(argv)
    Path(span_file).write_text(json.dumps(recorder.to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main())
