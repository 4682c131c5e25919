"""The ``cold-cli`` workload: the golden CLI cases, one fresh interpreter each.

Cases come from ``GOLDEN_CASES`` in ``tests/regen_goldens.py``, read with
``ast`` so the benchmark process never imports xmlift.  Each case runs in
both output formats and its stdout must equal ``tests/golden/`` byte for
byte; the exit code must be 0, or the code of the category a golden error
report names.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from .query import Query

# Exit code of every xmlift error category, as documented for the CLI.
EXIT_CODES = {
    "XmliftError": 1, "UsageError": 2, "FixtureSyntaxError": 3,
    "UnresolvedReference": 4, "MalformedTable": 10, "NotAssociative": 10,
    "NoIdentity": 10, "NoInverse": 10, "NotHomomorphism": 11,
    "CodomainMismatch": 11, "NotASubgroup": 12, "NotNormal": 12,
    "ActionAxiomViolation": 13, "CM1Violation": 14, "CM2Violation": 14,
    "SquareNotCommuting": 15, "NotEquivariant": 15, "TriangleViolation": 16,
    "InducedCMViolation": 16, "KernelViolation": 16, "NotSubgroupOfKernel": 16,
    "BaseMismatch": 16, "PhiViolation": 16, "OmegaViolation": 16,
    "NotTransitive": 17, "KernelConditionFails": 17, "WellDefinednessDefect": 17,
    "H1Violation": 18, "H2Violation": 18, "H3Violation": 18,
    "NotADerivation": 19, "FormulaMismatch": 19, "RequiresEnumeration": 19,
    "NotASection": 19, "GroupoidViolation": 20, "NotAMorphism": 20,
    "GGActionViolation": 20, "SizeBound": 21, "UnknownCommand": 22,
}

# What an installed ``xmlift`` console script runs.
ENTRY = "from xmlift.cli import main; main()"


def golden_cases(root: Path) -> list[tuple[str, list[str]]]:
    tree = ast.parse((root / "tests" / "regen_goldens.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GOLDEN_CASES" for t in node.targets
        ):
            return [(name, list(argv)) for name, argv in ast.literal_eval(node.value)]
    raise LookupError("GOLDEN_CASES not found in tests/regen_goldens.py")


def make_round(root: Path) -> list[Query]:
    queries = []
    for name, argv in golden_cases(root):
        for fmt in ("machine", "human"):
            expected = (root / "tests" / "golden" / f"{name}.{fmt}.txt").read_bytes().decode("utf-8")
            check = _GoldenCheck(expected)
            queries.append(Query(None, argv + ["--format", fmt], check, label=f"{name}.{fmt}", reject=check.code != 0))
    return queries


def _expected_code(golden: str) -> int:
    for line in golden.splitlines():
        for sep in (" = ", ": "):
            if line.startswith("error.category" + sep):
                return EXIT_CODES[line.split(sep, 1)[1]]
    return 0


class _GoldenCheck:
    def __init__(self, expected: str):
        self.expected, self.code = expected, _expected_code(expected)

    def __call__(self, code: int, text: str) -> str | None:
        if code != self.code:
            return f"exit code {code}, expected {self.code}"
        if text != self.expected:
            return "output differs from the golden file"
        return None


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(root: Path, argv: list[str], traced: bool):
    """One CLI call in a fresh interpreter: (exit code, stdout, seconds, trace).

    A traced call goes through ``child.py cli``, which prints its spans as
    JSON on stderr.
    """
    if traced:
        cmd = [sys.executable, str(root / "perfbench" / "child.py"), "cli", *argv]
    else:
        cmd = [sys.executable, "-c", ENTRY, *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True)
    elapsed = time.perf_counter() - t0
    trace = None
    if traced and proc.stderr.strip():
        try:
            trace = json.loads(proc.stderr.splitlines()[-1])
        except ValueError:  # the child died before printing its spans
            trace = None
    return proc.returncode, proc.stdout.decode("utf-8", "replace"), elapsed, trace
