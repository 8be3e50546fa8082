"""Run the veechlab command line in this fresh interpreter.

    python3 bench/cli_child.py SRC TRACE_OUT ARG...

SRC is the directory to import veechlab from.  TRACE_OUT is "-" for an
untraced run, or a file that receives the run's trace records as JSON;
the tracer is installed before the command starts and the records are
written when it ends.  The exit code is the command's.

An untraced run samples its own speed while the command runs (see
speed.py) and writes SPEED_PREFIX and a JSON object with the samples and
the time spent taking them as the last line of stderr.  A traced run
takes no samples, so that they do not enter the self time of spans.
"""

import sys

SPEED_PREFIX = "speed "


def main(argv):
    src, trace_out, cli_args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    if trace_out == "-":
        return sampled(cli_args)

    import json

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from veechlab import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.records(), fh)


def sampled(cli_args):
    import json

    from speed import Sampler

    sampler = Sampler()
    try:
        with sampler:
            from veechlab import cli

            return cli.main(cli_args)
    finally:
        print(SPEED_PREFIX + json.dumps(sampler.report()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
