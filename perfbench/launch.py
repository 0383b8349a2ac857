"""Run one `superchar` command in this interpreter, the way the CLI runs it.

    python3 perfbench/launch.py --rss OUT [--trace OUT] [--catalog NAME,...] -- ARGS...

ARGS are the CLI's arguments.  `--catalog` replaces the default catalog
with `file:NAME` tables read from the working directory, so relabeled
groups keep their catalog names as labels.  `--trace` installs the span
tracer of `spans.py` and writes its dump to OUT when the command ends.
`--rss` names the file that receives the command's peak resident set in
KiB (see `peak_rss_kib`); it is written however the command ends.
The exit code is the CLI's.
"""

import argparse
import resource
import sys


def peak_rss_kib() -> int:
    """Peak resident set of this process (VmHWM) and of its reaped children
    (pool workers), in KiB.

    VmHWM counts only what this process touched since exec; its own
    ru_maxrss would also count the peak of the process that started it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace")
    parser.add_argument("--catalog")
    parser.add_argument("--rss", required=True)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    from superchar import cli

    if opts.catalog:
        if not hasattr(cli, "DEFAULT_CATALOG"):
            sys.exit("launch.py: superchar.cli has no DEFAULT_CATALOG to replace")
        cli.DEFAULT_CATALOG = tuple(f"file:{name}" for name in opts.catalog.split(","))
    tracer = None
    if opts.trace:
        import spans

        tracer = spans.install()
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(opts.trace)
        with open(opts.rss, "w", encoding="ascii") as fh:
            fh.write(str(peak_rss_kib()))


if __name__ == "__main__":
    sys.exit(main())
