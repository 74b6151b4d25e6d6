"""Taint-style dataflow: provenance tracking for determinism (SIM011).

The reproduction's correctness story rests on byte-identical
determinism: serial, warm-pool, rack-sharded, and cache-hit runs of the
same seeded experiment must produce equal fingerprints.  The per-file
rules forbid *calling* wall-clock and unseeded-RNG functions inside
simulation modules, but they cannot see a nondeterministic value flowing
*through* a helper into fingerprint-relevant state — which is exactly
how such bugs arrive in practice.

This pass tracks three taint kinds from their sources::

    wallclock   time.time()/perf_counter()/datetime.now()/...
    rng         module-global random.*(), unseeded Random(),
                SystemRandom(), os.urandom(), uuid.uuid4(), secrets.*
    unordered   iteration order of a set/frozenset (hash-randomized
                across processes; ``sorted(...)`` launders it)

through assignments, expressions, and **function and module boundaries**
(summaries over the project call graph, iterated to a fixpoint), into
the sinks that feed the determinism fingerprint:

* ``ExperimentSummary(...)`` / ``ExperimentResult(...)`` construction
  — except the documented wall-clock diagnostic fields
  (:data:`SUMMARY_FIELD_ALLOWLIST`), which the fingerprint deliberately
  excludes;
* ``fingerprint_digest(...)`` / ``config_digest(...)`` arguments;
* ``<cache>.put(...)`` stores in modules that use ``repro.cache``;
* the return value of any function named ``fingerprint``.

A hit means: a value whose bits can differ between two runs of the same
config reaches state two runs are promised to agree on — SIM011.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .engine import FunctionInfo, Project, dotted_chain
from .rules import _DATETIME_FUNCS, _TIME_FUNCS, WALLCLOCK_EXEMPT, Violation

#: Taint kinds (the concrete strings used as labels).
WALLCLOCK = "wallclock"
RNG = "rng"
UNORDERED = "unordered"

#: ``ExperimentSummary`` fields that are wall-clock diagnostics *by
#: design*: the fingerprint excludes them (see ``ExperimentSummary.
#: fingerprint``), so host-time taint reaching them is not a hazard.
#: ``status``/``attempts`` are runner bookkeeping, mutated on retries
#: and cache hits, likewise excluded from the fingerprint.
SUMMARY_FIELD_ALLOWLIST = frozenset(
    {"wall_seconds", "events_per_second", "status", "attempts"}
)

#: The summary types; ``ExperimentResult`` is a summary plus the server.
SUMMARY_CLASSES = frozenset({"ExperimentSummary", "ExperimentResult"})

#: Functions whose arguments feed a determinism digest directly.
DIGEST_SINK_FUNCS = frozenset({"fingerprint_digest", "config_digest"})

#: The result-cache package: modules importing these names get their
#: two-argument ``.put(...)`` calls treated as cache-store sinks.
_CACHE_MARKER_IMPORTS = ("repro.cache", "repro.cache.store")

_KINDS = frozenset({WALLCLOCK, RNG, UNORDERED})

_KIND_DESCRIPTIONS = {
    WALLCLOCK: "host wall-clock time",
    RNG: "unseeded randomness",
    UNORDERED: "unordered-collection iteration order",
}

Label = object  # a kind string, or ("param", index)


@dataclass
class FunctionSummary:
    """What one function does with taint, seen from its call sites."""

    #: Labels reaching a ``return`` (kinds given clean args; ``("param",
    #: i)`` when argument ``i`` flows to the return value).
    returns: Set = field(default_factory=set)
    #: Parameter indices whose value reaches a sink inside this function
    #: (possibly through further calls), mapped to the sink description.
    param_sinks: Dict[int, str] = field(default_factory=dict)

    def copy(self) -> "FunctionSummary":
        return FunctionSummary(set(self.returns), dict(self.param_sinks))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionSummary)
            and self.returns == other.returns
            and self.param_sinks == other.param_sinks
        )


class TaintPass:
    """Project-wide taint propagation and SIM011 sink checking."""

    def __init__(self, project: Project):
        self.project = project
        self.summaries: Dict[Tuple[str, str], FunctionSummary] = {}
        self.violations: List[Violation] = []

    # -- public entry --------------------------------------------------

    def run(self) -> List[Violation]:
        """Fixpoint the summaries, then report sink hits."""
        functions = [
            (module, qual, fn)
            for module, facts in sorted(self.project.modules.items())
            for qual, fn in sorted(facts.functions.items())
        ]
        for module, qual, _ in functions:
            self.summaries[(module, qual)] = FunctionSummary()
        for _ in range(10):  # bounded fixpoint over the call graph
            changed = False
            for module, qual, fn in functions:
                summary = self._analyze(module, qual, fn, report=False)
                if summary != self.summaries[(module, qual)]:
                    self.summaries[(module, qual)] = summary
                    changed = True
            if not changed:
                break
        self.violations = []
        for module, qual, fn in functions:
            self._analyze(module, qual, fn, report=True)
        for module, facts in sorted(self.project.modules.items()):
            self._analyze_module_level(module, facts.file.tree)
        # The body is walked twice per function (loop-carried taint), so
        # each finding is seen twice; dedupe before presenting.
        self.violations = sorted(
            set(self.violations), key=lambda v: (v.path, v.line, v.col, v.message)
        )
        return self.violations

    # -- analysis of one function --------------------------------------

    def _analyze(
        self, module: str, qual: str, fn: FunctionInfo, report: bool
    ) -> FunctionSummary:
        analyzer = _BodyAnalyzer(self, module, qual, fn, report)
        return analyzer.run()

    def _analyze_module_level(self, module: str, tree: ast.Module) -> None:
        analyzer = _BodyAnalyzer(self, module, "<module>", None, report=True)
        analyzer.run_statements(tree.body)

    # -- shared lookups ------------------------------------------------

    def dotted_origin(self, module: str, chain: Sequence[str]) -> str:
        """Textual absolute name for a chain, through the import table."""
        facts = self.project.modules.get(module)
        head = chain[0]
        if facts is not None and head in facts.imports:
            return ".".join([facts.imports[head]] + list(chain[1:]))
        return ".".join(chain)

    def module_uses_cache(self, module: str) -> bool:
        facts = self.project.modules.get(module)
        if facts is None:
            return False
        return any(
            origin.startswith(_CACHE_MARKER_IMPORTS)
            for origin in facts.imports.values()
        )


def _is_setish(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _BodyAnalyzer:
    """One pass over one function body (or the module level)."""

    def __init__(
        self,
        owner: TaintPass,
        module: str,
        qual: str,
        fn: Optional[FunctionInfo],
        report: bool,
    ):
        self.owner = owner
        self.project = owner.project
        self.module = module
        self.qual = qual
        self.fn = fn
        self.report = report
        self.cls_name = qual.split(".")[0] if "." in qual else None
        self.path = self.project.modules[module].file.path
        self.env: Dict[str, Set] = {}
        self.summary = FunctionSummary()
        self.wallclock_exempt = module in WALLCLOCK_EXEMPT

    # -- driver --------------------------------------------------------

    def run(self) -> FunctionSummary:
        assert self.fn is not None
        node = self.fn.node
        params = [a.arg for a in node.args.posonlyargs + node.args.args]
        if self.fn.is_method and params and params[0] in ("self", "cls"):
            params = params[1:]
            offset = 1
        else:
            offset = 0
        for i, name in enumerate(params):
            self.env[name] = {("param", i)}
        self._offset = offset
        # Two passes over the body approximate loop-carried taint.
        self.run_statements(node.body)
        self.run_statements(node.body)
        return self.summary

    def run_statements(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._statement(stmt)

    # -- statements ----------------------------------------------------

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are analyzed as their own functions
        if isinstance(stmt, ast.Assign):
            labels = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, labels)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            labels = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = self.env.get(stmt.target.id, set()) | labels
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                labels = self._eval(stmt.value)
                self.summary.returns |= labels
                if self.report and self.qual.split(".")[-1] == "fingerprint":
                    self._report_kinds(
                        stmt,
                        labels,
                        "the return value of fingerprint()",
                    )
        elif isinstance(stmt, ast.For):
            labels = self._eval(stmt.iter)
            if _is_setish(stmt.iter):
                labels = labels | {UNORDERED}
            self._bind(stmt.target, labels)
            self.run_statements(stmt.body)
            self.run_statements(stmt.orelse)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test)
            self.run_statements(stmt.body)
            self.run_statements(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                labels = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, labels)
            self.run_statements(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.run_statements(stmt.body)
            for handler in stmt.handlers:
                self.run_statements(handler.body)
            self.run_statements(stmt.orelse)
            self.run_statements(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)

    def _bind(self, target: ast.AST, labels: Set) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = set(labels)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, labels)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, labels)
        # attribute/subscript stores drop out of the local env on purpose

    # -- expressions ---------------------------------------------------

    def _eval(self, node: Optional[ast.AST]) -> Set:
        if node is None or isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            return self._eval(node.value)
        if isinstance(node, ast.Lambda):
            return set()
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            out: Set = set()
            for gen in node.generators:
                labels = self._eval(gen.iter)
                if _is_setish(gen.iter):
                    labels = labels | {UNORDERED}
                self._bind(gen.target, labels)
                out |= labels
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    out |= self._eval(child)
            return out
        out = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self._eval(child)
        return out

    def _eval_call(self, call: ast.Call) -> Set:
        arg_labels = [self._eval(a) for a in call.args]
        kw_labels = {kw.arg: self._eval(kw.value) for kw in call.keywords}
        all_labels: Set = set()
        for labels in arg_labels:
            all_labels |= labels
        for labels in kw_labels.values():
            all_labels |= labels
        # A method call on a tainted receiver yields a tainted result
        # (``os.urandom(8).hex()``, ``wallclock_value.as_integer_ratio()``).
        if isinstance(call.func, ast.Attribute):
            all_labels |= self._eval(call.func.value)

        # sorted() launders iteration-order nondeterminism.
        if isinstance(call.func, ast.Name) and call.func.id == "sorted":
            return all_labels - {UNORDERED}

        source = self._source_kind(call)
        if source is not None:
            return all_labels | {source}

        self._check_sinks(call, arg_labels, kw_labels)

        target = self.project.resolve_call(self.module, call, self.cls_name)
        if target is not None and target in self.owner.summaries:
            summary = self.owner.summaries[target]
            out = set()
            for label in summary.returns:
                if label in _KINDS:
                    out.add(label)
                elif isinstance(label, tuple) and label[0] == "param":
                    index = label[1]
                    out |= self._labels_for_param(index, arg_labels, kw_labels, target)
            if self.report:
                for index, sink in sorted(summary.param_sinks.items()):
                    labels = self._labels_for_param(
                        index, arg_labels, kw_labels, target
                    )
                    self._report_kinds(call, labels, sink, via=target)
                    for label in labels:
                        if isinstance(label, tuple) and label[0] == "param":
                            self.summary.param_sinks.setdefault(label[1], sink)
            else:
                for index, sink in summary.param_sinks.items():
                    for label in self._labels_for_param(
                        index, arg_labels, kw_labels, target
                    ):
                        if isinstance(label, tuple) and label[0] == "param":
                            self.summary.param_sinks.setdefault(label[1], sink)
            return out
        # Unresolved call: conservative pass-through of argument taint.
        return all_labels

    def _labels_for_param(
        self,
        index: int,
        arg_labels: List[Set],
        kw_labels: Dict[Optional[str], Set],
        target: Tuple[str, str],
    ) -> Set:
        if index < len(arg_labels):
            return arg_labels[index]
        # keyword-passed: match by parameter name on the callee.
        mod, qual = target
        fn = self.project.modules[mod].functions.get(qual)
        if fn is None:
            return set()
        node = fn.node
        params = [a.arg for a in node.args.posonlyargs + node.args.args]
        if fn.is_method and params and params[0] in ("self", "cls"):
            params = params[1:]
        if index < len(params):
            return kw_labels.get(params[index], set())
        return set()

    # -- taint sources -------------------------------------------------

    def _source_kind(self, call: ast.Call) -> Optional[str]:
        chain = dotted_chain(call.func)
        if chain is None:
            return None
        origin = self.owner.dotted_origin(self.module, chain)
        parts = origin.split(".")
        root, terminal = parts[0], parts[-1]
        if not self.wallclock_exempt:
            if root == "time" and terminal in _TIME_FUNCS:
                return WALLCLOCK
            if root == "datetime" and terminal in _DATETIME_FUNCS:
                return WALLCLOCK
        if origin == "os.urandom" or origin == "uuid.uuid4" or root == "secrets":
            return RNG
        if root == "random":
            if terminal == "Random":
                return None if (call.args or call.keywords) else RNG
            if terminal == "SystemRandom":
                return RNG
            if len(parts) == 2:  # module-global random.random()/randint()/...
                return RNG
        return None

    # -- sinks ---------------------------------------------------------

    def _check_sinks(
        self,
        call: ast.Call,
        arg_labels: List[Set],
        kw_labels: Dict[Optional[str], Set],
    ) -> None:
        func = call.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr

        if name in SUMMARY_CLASSES:
            for labels in arg_labels:
                self._sink_hit(call, labels, "an ExperimentSummary field")
            for kw, labels in kw_labels.items():
                if kw in SUMMARY_FIELD_ALLOWLIST:
                    continue
                self._sink_hit(
                    call, labels, f"ExperimentSummary field {kw!r}"
                )
        elif name in DIGEST_SINK_FUNCS:
            for labels in list(arg_labels) + list(kw_labels.values()):
                self._sink_hit(call, labels, f"a {name}() argument")
        elif (
            name == "put"
            and isinstance(func, ast.Attribute)
            and len(call.args) + len(call.keywords) >= 2
            and self.owner.module_uses_cache(self.module)
        ):
            for labels in list(arg_labels) + list(kw_labels.values()):
                self._sink_hit(call, labels, "a result-cache .put() payload")

    def _sink_hit(self, node: ast.AST, labels: Set, sink: str) -> None:
        self._report_kinds(node, labels, sink)
        for label in labels:
            if isinstance(label, tuple) and label[0] == "param":
                self.summary.param_sinks.setdefault(label[1], sink)

    def _report_kinds(
        self,
        node: ast.AST,
        labels: Set,
        sink: str,
        via: Optional[Tuple[str, str]] = None,
    ) -> None:
        if not self.report:
            return
        kinds = sorted(label for label in labels if label in _KINDS)
        if not kinds:
            return
        route = f" via {via[0]}.{via[1]}()" if via is not None else ""
        what = " and ".join(_KIND_DESCRIPTIONS[k] for k in kinds)
        self.owner.violations.append(
            Violation(
                self.path,
                node.lineno,
                node.col_offset,
                "SIM011",
                f"{what} reaches {sink}{route}; fingerprint-relevant state "
                "must be a pure function of the seeded config",
            )
        )


def check_taint(project: Project) -> List[Violation]:
    """Run the whole-program taint pass; returns SIM011 violations."""
    return TaintPass(project).run()
