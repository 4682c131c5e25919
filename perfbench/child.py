"""Child processes of the benchmark; not meant to be run by hand.

    child.py setup <workload>   time ``import xmlift`` plus the warm-up pass
                                in a fresh interpreter; prints seconds
    child.py cli <argv...>      one traced CLI call: the report on stdout,
                                the spans as JSON on the last stderr line
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))


def setup(workload: str) -> None:
    from perfbench import run

    work = run.work_dir()
    try:
        docs, queries = run.warmup_round(workload)
        paths = run.write_docs(docs, work)
        t0 = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        cli = importlib.import_module("xmlift.cli")
        for q in queries:
            cli.run(run.argv_of(q, paths))
        print(repr(time.perf_counter() - t0))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_cli(argv: list[str]) -> int:
    from perfbench.tracer import Tracer

    cli = importlib.import_module("xmlift.cli")
    tracer = Tracer()
    tracer.install()
    code, text = cli.run(argv)
    tracer.uninstall()
    sys.stdout.write(text)
    sys.stdout.flush()
    sys.stderr.write(json.dumps(tracer.export()) + "\n")
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    elif sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2:]))
    else:
        sys.exit(f"unknown child mode {sys.argv[1]!r}")
