"""The output contract: what a fixed list of mcfs commands writes.

    python3 tools/contract.py             # run the list, write contract.json
    python3 tools/contract.py --check     # run it again, compare

The contract is that a command with the same flags writes the same
outputs, apart from the wall-time fields.  The list holds every
``bench/run.py`` workload at seeds 0 and 7 with its own ``MCFS_THREADS``,
each multi-worker workload again at ``MCFS_THREADS=1``, the default greedy
``run --synthetic 500,20,5`` at seeds 0 and 7, and a random run whose every
episode scores below zero.  Each command runs as ``python3 -m mcfs.cli``
from this checkout's ``src``, with one BLAS thread.

For each command the contract keeps its exit code and a SHA-256 of each
file it writes and of its standard output, with the output directory
masked.  ``report.json`` is digested without ``total_wall_ms`` and
``curves[].wall_ms``, and ``curves.csv`` without its ``wall_ms`` column.
Each report also keeps a short digest of every value it holds: each
element of a list, and each key of an object, at any depth.  So ``--check``
names the first JSON path whose value differs.  Digests only compare on
one toolchain, so the contract records the Python and numpy versions, and
``--check`` on another reads "not comparable" and exits 2.  It exits 1
when any command differs, or when the contract records a command that the
list no longer holds.

Uses only the standard library and the ``mcfs`` package, and takes the
workloads, the BLAS thread variables and the wall-time stripping from
``bench/run.py``.  The full list took 30-35 s on a 2-core x86_64 machine.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CONTRACT = Path(__file__).resolve().with_name("contract.json")
SEEDS = (0, 7)
COMMAND_TIMEOUT_S = 600
# the output directory's place in a masked standard output
OUT_MASK = "<out>"


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple  # mcfs subcommand and flags, without --out
    threads: int


@functools.cache
def bench():
    """The ``bench/run.py`` module, which holds the benchmark's commands."""
    spec = importlib.util.spec_from_file_location(
        "mcfs_bench_run", REPO / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def commands() -> list:
    found = []

    def add(name, args, seed, threads):
        found.append(Command(f"{name} seed={seed} threads={threads}",
                             (*args, "--seed", str(seed)), threads))

    workloads = bench().WORKLOADS.values()
    for w in workloads:
        for seed in SEEDS:
            add(w.name, w.command, seed, w.threads)
    # the worker count must not change an output
    for w in workloads:
        if w.threads > 1:
            for seed in SEEDS:
                add(w.name, w.command, seed, 1)
    for seed in SEEDS:
        add("greedy", ("run", "--synthetic", "500,20,5"), seed, 1)
    # every episode scores below zero
    add("negative-rewards", ("run", "--synthetic", "300,12,4",
                             "--weights", "0,0,1", "--behavior", "random",
                             "--stop-threshold", "0", "--episodes", "20"),
        3, 1)
    return found


def toolchain() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "machine": platform.machine(),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def stable_curves(text: str) -> bytes:
    """curves.csv without its wall_ms column."""
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_ms"]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [row[i] for i in keep] for row in rows)
    return out.getvalue().encode()


def value_digests(value, path="$") -> dict:
    """A short digest per JSON path, in document order.

    An object maps to its keys' paths; a list is one entry, under the path
    followed by ``[]``, holding each element's digest.
    """
    if isinstance(value, dict):
        found = {}
        for key in sorted(value):
            found.update(value_digests(value[key], f"{path}.{key}"))
        return found
    if isinstance(value, list):
        return {f"{path}[]": " ".join(
            _sha256(_canonical(v))[:8] for v in value)}
    return {path: _sha256(_canonical(value))[:8]}


def first_difference(old: dict, new: dict) -> str | None:
    """The first JSON path whose digest differs between two
    ``value_digests`` maps, or None."""
    for path in [*old, *(p for p in new if p not in old)]:
        a, b = old.get(path), new.get(path)
        if a == b:
            continue
        if a is None or b is None or not path.endswith("[]"):
            return path
        a, b = a.split(), b.split()
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                 min(len(a), len(b)))
        return f"{path[:-2]}[{i}]"
    return None


def run_command(cmd: Command, work: Path) -> dict:
    """Run one command in ``work``; its exit code and output digests."""
    out = work / "out"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({name: "1" for name in bench().BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(REPO / "src")
    env["MCFS_THREADS"] = str(cmd.threads)
    proc = subprocess.run(
        [sys.executable, "-m", "mcfs.cli", *cmd.args, "--out", str(out)],
        cwd=work, env=env, capture_output=True, text=True,
        timeout=COMMAND_TIMEOUT_S,
    )
    outputs, reports = {}, {}
    files = sorted(out.rglob("*")) if out.is_dir() else []
    for path in (p for p in files if p.is_file()):
        name = path.relative_to(out).as_posix()
        if path.name == "report.json":
            view = json.loads(bench().stable_view(json.loads(path.read_text())))
            outputs[name] = _sha256(_canonical(view))
            reports[name] = value_digests(view)
        elif path.name == "curves.csv":
            outputs[name] = _sha256(stable_curves(path.read_text()))
        else:
            outputs[name] = _sha256(path.read_bytes())
    outputs["stdout"] = _sha256(
        proc.stdout.replace(str(out), OUT_MASK).encode())
    return {
        "args": list(cmd.args),
        "threads": cmd.threads,
        "exit_code": proc.returncode,
        "outputs": outputs,
        "reports": reports,
    }


def difference(old: dict, new: dict) -> str | None:
    """Where a command's new record first departs from its old one."""
    if old["args"] != new["args"] or old["threads"] != new["threads"]:
        return "recorded with other flags"
    if old["exit_code"] != new["exit_code"]:
        return f"exit code {new['exit_code']}, recorded {old['exit_code']}"
    names = [*old["outputs"],
             *(n for n in new["outputs"] if n not in old["outputs"])]
    # a report names the path that differs, so reports go first
    names.sort(key=lambda n: n not in old["reports"])
    for name in names:
        a, b = old["outputs"].get(name), new["outputs"].get(name)
        if a == b:
            continue
        if a is None or b is None:
            return f"{name}: {'not written' if b is None else 'new file'}"
        if name in old["reports"] and name in new["reports"]:
            path = first_difference(old["reports"][name],
                                    new["reports"][name])
            if path is not None:
                return f"{name}: {path}"
        return f"{name} differs"
    return None


def record_all(chosen: list) -> dict:
    """Each command's record, by name."""
    records = {}
    for cmd in chosen:
        print(f"running {cmd.name}", file=sys.stderr, flush=True)
        with tempfile.TemporaryDirectory(prefix="mcfs-contract-") as work:
            records[cmd.name] = run_command(cmd, Path(work))
    return records


def record(chosen: list) -> dict:
    """A contract of the chosen commands on this toolchain."""
    return {"toolchain": toolchain(), "commands": record_all(chosen)}


def check(contract: dict, chosen: list) -> int:
    """Rerun the chosen commands and compare each with its record; a
    recorded command that is not chosen differs too."""
    recorded = contract["toolchain"]
    if recorded != toolchain():
        print(f"not comparable: recorded on {recorded}, "
              f"this is {toolchain()}")
        return 2
    ran = record_all(chosen)
    names = [*ran, *(n for n in contract["commands"] if n not in ran)]
    failed = 0
    for name in names:
        old, new = contract["commands"].get(name), ran.get(name)
        if old is None:
            problem = "not recorded"
        elif new is None:
            problem = "not run"
        else:
            problem = difference(old, new)
        failed += problem is not None
        print(f"{'ok' if problem is None else 'DIFFERS':8} {name}"
              + ("" if problem is None else f": {problem}"))
    print(f"{failed} of {len(names)} commands differ" if failed
          else f"contract holds for {len(names)} commands")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="record or check the outputs of a fixed mcfs "
                    "command list")
    parser.add_argument("--check", action="store_true",
                        help="rerun the list and compare it with the contract")
    args = parser.parse_args(argv)
    if args.check:
        return check(json.loads(CONTRACT.read_text()), commands())
    contract = record(commands())
    CONTRACT.write_text(json.dumps(contract, indent=1) + "\n")
    print(f"recorded {len(contract['commands'])} commands in {CONTRACT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
