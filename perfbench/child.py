"""Run one overcubic CLI command in this fresh interpreter and record when
its stages ended.

    python3 perfbench/child.py META_OUT SPANS_OUT -- CLI_ARGS...

META_OUT receives the CLOCK_MONOTONIC readings (shared by every process on
the machine) at which ``import overcubic.cli`` returned and ``main`` started
and ended, plus the exit code and the file the package was imported from.
SPANS_OUT is ``-`` for an untraced command; otherwise the spans of every
wrapped function call are written there as JSON.
"""
import json
import sys
import time


def main() -> int:
    meta_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py META_OUT SPANS_OUT -- CLI_ARGS...")
    import overcubic.cli as cli

    imported = time.monotonic()
    tracer = None
    if spans_path != "-":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.monotonic()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    end = time.monotonic()
    meta = {
        "imported": imported,
        "start": start,
        "end": end,
        "rc": rc,
        "package": cli.__file__,
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
