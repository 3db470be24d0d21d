"""Reach: which functions of ``src/repro`` the repo's consumers ever run.

Usage (from the repository root)::

    python benchmarks/reach.py

A *consumer* is a non-test entry point that CI runs: the wallbench
workloads, the examples (with the obs-smoke CLI steps), the experiment
report, the resilience benchmark and the determinism lint.  Tests are not
consumers.  Each consumer runs in a subprocess under ``sys.setprofile``,
inside a temporary copy of the tree (``generate_report.py`` rewrites
``EXPERIMENTS.md``), so the work tree is left unchanged.

Every function under ``src/repro`` is found by AST and matched to the
code objects the consumers called by ``(file, co_firstlineno, name)``;
for a decorated function ``co_firstlineno`` is its first decorator's
line.  The report lists every unreached function and every
``AgoraConfig`` field that no consumer sets to a value other than its
default, and every :data:`EXCEPTIONS` entry that covers neither (a stale
excuse).  Exit status: 0 when everything unreached is in
:data:`EXCEPTIONS` and no entry is stale, 1 otherwise, 2 when a consumer
failed.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence, Set, TextIO, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: (name, argv after ``python``, expected exit status), run in order from
#: the root of the tree copy; later consumers may read earlier outputs
CONSUMERS: Tuple[Tuple[str, Tuple[str, ...], int], ...] = tuple(
    (f"wallbench {workload}",
     ("wallbench/run.py", "--workload", workload, "--seed", "3",
      "--seconds", "0", "--scale", "tiny"), 0)
    for workload in ("topic-static", "similarity-search", "live-churn")
) + tuple(
    (f"example {name}", (f"examples/{name}.py",), 0)
    for name in ("quickstart", "iris_scenario", "resilient_shopping",
                 "negotiation_marketplace", "collaborative_research")
) + (
    ("obs-smoke record a", ("examples/observability_demo.py", "--seed", "11",
                            "--out", "runs/a"), 0),
    ("obs-smoke record b", ("examples/observability_demo.py", "--seed", "11",
                            "--out", "runs/b"), 0),
    ("obs-smoke diff", ("-m", "repro.obs", "diff", "runs/a/manifest.json",
                        "runs/b/manifest.json"), 0),
    ("obs-smoke summary", ("-m", "repro.obs", "summary", "runs/a/manifest.json"), 0),
    ("obs-smoke spans", ("-m", "repro.obs", "spans", "runs/a/spans.jsonl",
                         "--limit", "40"), 0),
    ("obs-smoke flight a", ("examples/observability_demo.py", "--seed", "11",
                            "--out", "runs/fa", "--flight"), 0),
    ("obs-smoke flight b", ("examples/observability_demo.py", "--seed", "11",
                            "--out", "runs/fb", "--flight"), 0),
    ("obs-smoke fault", ("examples/observability_demo.py", "--seed", "11",
                         "--out", "runs/fm", "--fault-at", "17"), 0),
    ("obs-smoke divergence", ("-m", "repro.obs", "divergence", "runs/fa", "runs/fb"), 0),
    ("obs-smoke divergence fault", ("-m", "repro.obs", "divergence", "runs/fa",
                                    "runs/fm"), 1),
    ("generate_report", ("benchmarks/generate_report.py",), 0),
    ("bench_resilience", ("benchmarks/bench_resilience.py",), 0),
    ("analysis", ("-m", "repro.analysis", "src/repro", "benchmarks", "examples"), 0),
)

#: the package measured, under ``src/``
PACKAGE = "repro"

#: (module, class) of the config whose never-set fields are reported
CONFIG = ("repro.core.config", "AgoraConfig")

#: the rule's exceptions: (name, reason).  A name covers the module,
#: class or function it names and everything inside it; a name of the
#: form ``field:<name>`` covers a field of :data:`CONFIG`.  The
#: :data:`PROTOCOL_DUNDERS` of a class with a reached method are covered
#: by :data:`DUNDER_REASON`.
EXCEPTIONS: Tuple[Tuple[str, str], ...] = (
    ("repro.obs", "observability; the run report (ROADMAP item 7) decides what stays"),
    ("repro.core.agora.Agora.slo_report", "reached only through repro.obs"),
    ("repro.qos.monitor.ContractMonitor.slo_report", "reached only through repro.obs"),
    ("repro.analysis", "the determinism lint, a CI check"),
    ("repro.uncertainty.matching.MatchingEngine.rank_pairwise",
     "parity reference of the batched rank"),
    ("repro.uncertainty.matching.MatchingEngine.rank_block",
     "rank_block_topk over every position, which the parity suites and"
     " bench_micro rank through"),
    ("repro.uncertainty.similarity.bag_cosine", "parity reference of compact_cosine"),
    ("repro.uncertainty.matching.CandidateBlock._score_compound_query",
     "batch path checked against score by the parity suites"),
    ("repro.qos.pricing.PricingPolicy.quote",
     "abstract method of the live FlatPricing and RiskPricedPremium policies"),
    ("field:mean_uptime", "tests build the churn scenario they assert on with it"),
    ("field:mean_downtime", "tests build the churn scenario they assert on with it"),
    ("field:overpromise_range", "tests build the breach scenario they assert on with it"),
    ("field:error_rate_range", "tests build the breach scenario they assert on with it"),
)

#: dunders the interpreter or a container calls implicitly
PROTOCOL_DUNDERS = frozenset({
    "__repr__", "__str__", "__eq__", "__hash__", "__len__", "__bool__",
    "__contains__", "__iter__",
})

#: the reason that covers the protocol dunders of a live class
DUNDER_REASON = "protocol dunder of a class with a reached method"

#: run in each consumer's subprocess: profile the consumer, then write the
#: called code objects under the source root and the config's set fields
_BOOTSTRAP = r"""
import dataclasses, json, os, runpy, sys, threading
out, src, config_module, config_class, *argv = sys.argv[1:]
called = set()
set_fields = set()

def record_config(frame):
    module = sys.modules.get(config_module)
    cls = getattr(module, config_class, None)
    if cls is None or frame.f_code is not cls.__init__.__code__:
        return
    config = frame.f_locals["self"]
    for spec in dataclasses.fields(cls):
        if spec.default is not dataclasses.MISSING:
            default = spec.default
        else:
            default = spec.default_factory()
        if getattr(config, spec.name) != default:
            set_fields.add(spec.name)

def hook(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)
    elif event == "return" and frame.f_code.co_name == "__init__":
        record_config(frame)

if argv[0] == "-m":
    sys.argv = argv[1:]
else:
    sys.argv = argv
    sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
status = 0
threading.setprofile(hook)
sys.setprofile(hook)
try:
    if argv[0] == "-m":
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        runpy.run_path(argv[0], run_name="__main__")
except SystemExit as exc:
    status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
finally:
    sys.setprofile(None)
    threading.setprofile(None)
prefix = os.path.join(src, "")
codes = sorted({
    (os.path.relpath(code.co_filename, src), code.co_firstlineno, code.co_name)
    for code in called if code.co_filename.startswith(prefix)
})
with open(out, "w") as handle:
    json.dump({"codes": codes, "fields": sorted(set_fields)}, handle)
sys.exit(status)
"""


@dataclasses.dataclass(frozen=True)
class Function:
    """One ``def`` under the measured package."""

    path: str  # relative to ``src/``
    line: int  # ``co_firstlineno``: the first decorator's line, else the def's
    name: str
    qualname: str  # dotted, e.g. ``repro.sim.kernel.Simulator.run``
    cls: Optional[str]  # qualname of the enclosing class, if a method
    lines: int  # body lines, counted from the first body statement

    @property
    def key(self) -> Tuple[str, int, str]:
        return (self.path, self.line, self.name)


def functions(src: Path, package: str) -> List[Function]:
    """Every function (methods and nested ones too) under ``src/package``."""
    found: List[Function] = []
    for path in sorted((src / package).rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        module = rel[:-3].replace("/", ".")
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(path.read_text(), filename=str(path))
        _walk(tree, rel, module, None, found)
    return found


def _walk(node: ast.AST, rel: str, scope: str, cls: Optional[str],
          found: List[Function]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{scope}.{child.name}"
            line = min([child.lineno] + [d.lineno for d in child.decorator_list])
            lines = child.end_lineno - child.body[0].lineno + 1
            found.append(Function(rel, line, child.name, qualname, cls, lines))
            _walk(child, rel, qualname, None, found)
        elif isinstance(child, ast.ClassDef):
            qualname = f"{scope}.{child.name}"
            _walk(child, rel, qualname, qualname, found)
        else:
            _walk(child, rel, scope, cls, found)


def run_consumers(root: Path, consumers: Sequence[Tuple[str, Sequence[str], int]],
                  config: Tuple[str, str], out: TextIO
                  ) -> Tuple[Set[Tuple[str, int, str]], Set[str], List[str]]:
    """Run every consumer in a copy of ``root``.

    Returns the called ``(path, line, name)`` keys under ``src/``, the
    config fields set to a non-default value, and the consumers that
    exited with an unexpected status.
    """
    called: Set[Tuple[str, int, str]] = set()
    fields: Set[str] = set()
    failed: List[str] = []
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "runs"))
        src = tree / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        for index, (name, argv, expected) in enumerate(consumers):
            record = Path(scratch) / f"consumer-{index}.json"
            completed = subprocess.run(
                [sys.executable, "-c", _BOOTSTRAP, str(record), str(src), *config, *argv],
                cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True,
            )
            if completed.returncode != expected or not record.is_file():
                failed.append(name)
                print(f"consumer {name!r} exited {completed.returncode}, "
                      f"expected {expected}", file=out)
                print(completed.stderr[-2000:], file=out)
                continue
            data = json.loads(record.read_text())
            called.update((path, line, fname) for path, line, fname in data["codes"])
            fields.update(data["fields"])
    return called, fields, failed


def config_fields(src: Path, config: Tuple[str, str]) -> List[str]:
    """The field names of the config class, in declaration order, by AST."""
    module, cls = config
    path = src / (module.replace(".", "/") + ".py")
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return [stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    raise LookupError(f"no class {cls} in {path}")


def covers(name: str, function: Function) -> bool:
    """Whether the exception entry ``name`` covers ``function``."""
    return function.qualname == name or function.qualname.startswith(name + ".")


def exception_reason(function: Function, live_classes: Set[str],
                     exceptions: Sequence[Tuple[str, str]]) -> Optional[str]:
    """Why an unreached function may stay, or ``None`` if it may not."""
    for name, reason in exceptions:
        if covers(name, function):
            return reason
    if function.name in PROTOCOL_DUNDERS and function.cls in live_classes:
        return DUNDER_REASON
    return None


def report(root: Path, package: str, consumers: Sequence[Tuple[str, Sequence[str], int]],
           config: Tuple[str, str], exceptions: Sequence[Tuple[str, str]],
           out: TextIO = sys.stdout) -> int:
    """Measure reach under ``root/src/package``, print it, return the exit status."""
    src = root / "src"
    everything = functions(src, package)
    called, set_fields, failed = run_consumers(root, consumers, config, out)
    if failed:
        print(f"{len(failed)} consumer(s) failed: {', '.join(failed)}", file=out)
        return 2
    reached = [f for f in everything if f.key in called]
    live_classes = {f.cls for f in reached if f.cls is not None}
    unreached = [f for f in everything if f.key not in called]
    excepted = [(f, exception_reason(f, live_classes, exceptions)) for f in unreached]
    dead = [f for f, reason in excepted if reason is None]
    kept = [(f, reason) for f, reason in excepted if reason is not None]
    field_reasons = {name[len("field:"):]: reason for name, reason in exceptions
                     if name.startswith("field:")}
    unset = [name for name in config_fields(src, config) if name not in set_fields]
    unset_dead = [name for name in unset if name not in field_reasons]
    stale = [name for name, __ in exceptions if not name.startswith("field:")
             and not any(covers(name, f) for f in unreached)]
    stale += [f"field:{name}" for name in field_reasons if name not in unset]

    total_lines = sum(f.lines for f in everything)
    print(f"reach: {len(consumers)} consumers reached {len(reached)} of "
          f"{len(everything)} functions under src/{package}", file=out)
    print(f"unreached: {len(unreached)} functions, "
          f"{sum(f.lines for f in unreached)} of {total_lines} body lines", file=out)
    print(f"\nunreached, outside the exception table: {len(dead)} functions, "
          f"{sum(f.lines for f in dead)} body lines", file=out)
    for f in dead:
        print(f"  {f.path}:{f.line} {f.qualname} ({f.lines} lines)", file=out)
    print(f"\nunreached, excepted: {len(kept)} functions, "
          f"{sum(f.lines for f, __ in kept)} body lines", file=out)
    for f, reason in kept:
        print(f"  {f.path}:{f.line} {f.qualname} ({f.lines} lines) -- {reason}", file=out)
    print(f"\n{config[1]} fields no consumer sets: {len(unset)}", file=out)
    for name in unset:
        reason = field_reasons.get(name)
        print(f"  {name}" + (f" -- {reason}" if reason else ""), file=out)
    print(f"\nexceptions that cover nothing unreached or unset: {len(stale)}", file=out)
    for name in stale:
        print(f"  {name}", file=out)
    return 1 if dead or unset_dead or stale else 0


def main() -> int:
    return report(ROOT, PACKAGE, CONSUMERS, CONFIG, EXCEPTIONS)


if __name__ == "__main__":
    sys.exit(main())
