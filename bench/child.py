"""One benchmark child process; ``run.py`` starts it and reads its output.

    python3 bench/child.py setup -- <mcfs flags>
        Import the package, build the dataset and make the two nested
        splits the way ``mcfs run`` does, then exit.  Its wall time is the
        set-up time.
    python3 bench/child.py trace SPANS.json -- <mcfs command and flags>
        Run ``mcfs.cli.main`` with a probe on every layer, restore the
        probes, and write the spans to SPANS.json.

Untraced runs need no child of their own: they are plain
``python3 -m mcfs.cli`` processes.
"""

from __future__ import annotations

import json
import sys


def setup(argv) -> int:
    from mcfs import cli, data

    args = cli.build_parser().parse_args(["run", *argv])
    ds, _ = cli._load_dataset(args)
    outer = data.split_dataset(ds, cli.TRAIN_RATIO, seed=args.seed)
    data.split_dataset(outer.train, cli.TRAIN_RATIO, seed=args.seed)
    return 0


def trace(spans_path, argv) -> int:
    from tracer import Tracer, install_layer_probes

    from mcfs import cli

    tracer = Tracer()
    install_layer_probes(tracer)
    try:
        code = cli.main(argv)
    finally:
        unrestored = tracer.restore()
    with open(spans_path, "w") as fh:
        json.dump({
            "exit_code": code,
            "unrestored": unrestored,
            "edges": tracer.edges(),
            "records": tracer.records(),
        }, fh)
    return code if not unrestored else 3


def main(argv) -> int:
    split = argv.index("--")
    head, rest = argv[:split], argv[split + 1:]
    if head == ["setup"]:
        return setup(rest)
    if len(head) == 2 and head[0] == "trace":
        return trace(head[1], rest)
    print(f"usage: child.py setup|trace SPANS -- ARGS, got {head}",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
