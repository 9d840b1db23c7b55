"""AST-based determinism linter (the rules live in :mod:`repro.check.rules`).

One pass per file: a single visitor walks the tree carrying a set of
*guarded* expressions (receivers proven non-None on the current path,
for RPD004) and emits :class:`Finding` records with file:line positions.
Suppression comments (``# repro: allow[RPDxxx] reason: ...``) are parsed
straight from the source text; honoring one marks it used, and unused
suppressions are themselves findings (RPD000), so the exception
inventory cannot rot.

Scope is path-based: the obs package is exempt from the guard rule (its
internals *are* the handles), and ``repro._rng`` is the one sanctioned
home of raw RNG.  Everything else in the package is simulation code and
checked; measurement harnesses (the population benchmark under
``tests/``, ``simbench/``) live outside it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.check.rules import RPD005_EXCLUSIONS, RULES

#: Handle names whose method calls / attribute stores must be guarded
#: (RPD004).  Matched against the receiver's terminal name, so
#: ``self._obs``, ``engine.obs``, and a bare ``tracer`` all count.
OBS_HANDLE_NAMES = frozenset(
    {"obs", "_obs", "tracer", "observer", "sampler", "_sampler", "telemetry"}
)

#: Wall-clock callables (RPD002), by (module, attribute).
_WALLCLOCK_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)
_WALLCLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: Aggregations whose result depends on iteration order (RPD003): a bare
#: set fed to these leaks hash order into floats or sequences.  Order-
#: independent reductions (max/min/any/all/len) are deliberately absent.
_ORDER_SENSITIVE_AGGS = frozenset({"sum", "list", "tuple"})

_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[A-Z0-9,\s]+)\]"
    r"(?:\s*reason:\s*(?P<reason>.*?))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source position."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class Suppression:
    """One honored-or-not ``# repro: allow[...]`` comment."""

    rule: str
    path: str
    line: int
    reason: str
    used: bool = False


@dataclass
class LintResult:
    """Outcome of one lint run: surviving findings + suppression inventory."""

    findings: list[Finding] = field(default_factory=list)
    suppressions: list[Suppression] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def parse_suppressions(source: str, path: str) -> dict[int, list[Suppression]]:
    """``line -> suppressions`` declared on that line."""
    table: dict[int, list[Suppression]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(text)
        if match is None:
            continue
        reason = (match.group("reason") or "").strip()
        for rule_id in match.group("rules").split(","):
            rule_id = rule_id.strip()
            if rule_id:
                table.setdefault(lineno, []).append(
                    Suppression(rule=rule_id, path=path, line=lineno, reason=reason)
                )
    return table


def _rel_parts(path: Path) -> tuple[str, ...]:
    """Path parts relative to the ``repro`` package (or just the name)."""
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return parts[i + 1 :]
    return (path.name,)


def _rule_scope(parts: tuple[str, ...]) -> set[str]:
    """Rule ids applicable to the file at ``parts`` (package-relative)."""
    if parts and parts[0] == "check":
        return set()  # the linter does not police itself
    scope = {"RPD001", "RPD002", "RPD003", "RPD004", "RPD005", "RPD006"}
    if parts and parts[0] == "_rng.py":
        scope.discard("RPD001")  # the sanctioned RNG home
    if parts and parts[0] == "obs":
        scope.discard("RPD004")  # the handles' own implementation
    return scope


def _terminal_name(node: ast.expr) -> str | None:
    """Rightmost identifier of a Name/Attribute receiver expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _key(node: ast.expr) -> str:
    """Structural identity of an expression (guard bookkeeping)."""
    return ast.dump(node)


def _guard_sets(test: ast.expr) -> tuple[set[str], set[str]]:
    """``(guarded_if_true, guarded_if_false)`` receiver keys of a test."""
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, op, right = test.left, test.ops[0], test.comparators[0]
        if isinstance(right, ast.Constant) and right.value is None:
            if isinstance(op, ast.IsNot):
                return {_key(left)}, set()
            if isinstance(op, ast.Is):
                return set(), {_key(left)}
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        true_set, false_set = _guard_sets(test.operand)
        return false_set, true_set
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        true_set: set[str] = set()
        for value in test.values:
            true_set |= _guard_sets(value)[0]
        return true_set, set()
    return set(), set()


def _is_bare_set_expr(node: ast.expr) -> bool:
    """Whether ``node`` evaluates to an unordered set right here."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_listing_call(node: ast.expr) -> bool:
    """``os.listdir(...)`` / ``.iterdir()`` / ``.scandir()`` / ``.glob()``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    return name in ("listdir", "scandir", "iterdir", "glob", "rglob")


def _terminates(stmts: list[ast.stmt]) -> bool:
    """Whether a block always leaves its enclosing suite (guard clause)."""
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


class _FileLinter:
    """One file's lint pass: rule visitors sharing a guard-tracking walk."""

    def __init__(self, path: str, parts: tuple[str, ...], tree: ast.Module) -> None:
        self.path = path
        self.scope = _rule_scope(parts)
        self.tree = tree
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        self._walk_block(self.tree.body, set())
        if "RPD005" in self.scope or "RPD006" in self.scope:
            for node in ast.walk(self.tree):
                if isinstance(node, ast.ClassDef) and "RPD005" in self.scope:
                    self._check_spec_class(node)
                if isinstance(node, ast.Call) and "RPD006" in self.scope:
                    self._check_param_bounds(node)
        return self.findings

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        if rule in self.scope:
            self.findings.append(
                Finding(
                    rule=rule,
                    path=self.path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0) + 1,
                    message=message,
                )
            )

    # ------------------------------------------------------------------
    # Guard-tracking walk (statements)
    # ------------------------------------------------------------------
    def _walk_block(self, stmts: list[ast.stmt], guards: set[str]) -> None:
        """Walk a statement suite; guard clauses extend the suite's tail."""
        guards = set(guards)
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                true_set, false_set = _guard_sets(stmt.test)
                self._walk_expr(stmt.test, guards)
                self._walk_block(stmt.body, guards | true_set)
                self._walk_block(stmt.orelse, guards | false_set)
                # ``if x is None: return`` proves x for the rest of the suite.
                if false_set and _terminates(stmt.body):
                    guards |= false_set
                if true_set and _terminates(stmt.orelse):
                    guards |= true_set
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in stmt.decorator_list:
                    self._walk_expr(deco, guards)
                # A nested function body runs later: guards do not carry in.
                self._walk_block(stmt.body, set())
            elif isinstance(stmt, ast.ClassDef):
                for deco in stmt.decorator_list:
                    self._walk_expr(deco, guards)
                self._walk_block(stmt.body, set())
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._check_iteration(stmt.iter)
                self._walk_expr(stmt.iter, guards)
                self._walk_block(stmt.body, guards)
                self._walk_block(stmt.orelse, guards)
            elif isinstance(stmt, ast.While):
                true_set, _ = _guard_sets(stmt.test)
                self._walk_expr(stmt.test, guards)
                self._walk_block(stmt.body, guards | true_set)
                self._walk_block(stmt.orelse, guards)
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    self._walk_expr(item.context_expr, guards)
                self._walk_block(stmt.body, guards)
            elif isinstance(stmt, ast.Try):
                self._walk_block(stmt.body, guards)
                for handler in stmt.handlers:
                    self._walk_block(handler.body, guards)
                self._walk_block(stmt.orelse, guards)
                self._walk_block(stmt.finalbody, guards)
            elif isinstance(stmt, ast.Assign):
                self._check_obs_store(stmt.targets, guards, stmt)
                self._walk_expr(stmt.value, guards)
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                if stmt.value is not None:
                    self._walk_expr(stmt.value, guards)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self._check_import(stmt)
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self._walk_expr(child, guards)
                    elif isinstance(child, ast.stmt):
                        self._walk_block([child], guards)

    # ------------------------------------------------------------------
    # Guard-tracking walk (expressions)
    # ------------------------------------------------------------------
    def _walk_expr(self, node: ast.expr | None, guards: set[str]) -> None:
        if node is None:
            return
        if isinstance(node, ast.BoolOp):
            if isinstance(node.op, ast.And):
                acc = set(guards)
                for value in node.values:
                    self._walk_expr(value, acc)
                    acc |= _guard_sets(value)[0]
            else:  # Or: later operands run when earlier ones are falsy
                acc = set(guards)
                for value in node.values:
                    self._walk_expr(value, acc)
                    acc |= _guard_sets(value)[1]
            return
        if isinstance(node, ast.IfExp):
            true_set, false_set = _guard_sets(node.test)
            self._walk_expr(node.test, guards)
            self._walk_expr(node.body, guards | true_set)
            self._walk_expr(node.orelse, guards | false_set)
            return
        if isinstance(node, ast.Call):
            self._check_obs_call(node, guards)
            self._check_wallclock(node)
            self._check_order_sensitive_agg(node)
            self._check_numpy_random(node.func)
        if isinstance(node, ast.Attribute):
            self._check_numpy_random(node)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                self._check_iteration(gen.iter)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._walk_expr(child, guards)
            elif isinstance(child, ast.comprehension):
                self._walk_expr(child.iter, guards)
                for cond in child.ifs:
                    self._walk_expr(cond, guards)

    # ------------------------------------------------------------------
    # RPD001: raw RNG
    # ------------------------------------------------------------------
    def _check_import(self, stmt: ast.Import | ast.ImportFrom) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                root = alias.name.split(".")[0]
                if root == "random" or alias.name.startswith("numpy.random"):
                    self._emit(
                        "RPD001",
                        stmt,
                        f"import of {alias.name!r}: all randomness must flow "
                        "through repro._rng.derive_seed",
                    )
        else:
            module = stmt.module or ""
            if module == "random" or module.startswith("numpy.random"):
                self._emit(
                    "RPD001",
                    stmt,
                    f"import from {module!r}: all randomness must flow "
                    "through repro._rng.derive_seed",
                )
            elif module == "numpy":
                for alias in stmt.names:
                    if alias.name == "random":
                        self._emit(
                            "RPD001",
                            stmt,
                            "import of numpy.random: all randomness must "
                            "flow through repro._rng.derive_seed",
                        )
            elif module == "time":
                for alias in stmt.names:
                    if alias.name in _WALLCLOCK_TIME_ATTRS:
                        self._emit(
                            "RPD002",
                            stmt,
                            f"import of time.{alias.name}: wall clock is "
                            "forbidden in simulation code (use SimClock)",
                        )

    def _check_numpy_random(self, node: ast.expr) -> None:
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            self._emit(
                "RPD001",
                node,
                "numpy.random access: all randomness must flow through "
                "repro._rng.derive_seed",
            )

    # ------------------------------------------------------------------
    # RPD002: wall clock
    # ------------------------------------------------------------------
    def _check_wallclock(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        value = func.value
        if isinstance(value, ast.Name):
            if value.id == "time" and func.attr in _WALLCLOCK_TIME_ATTRS:
                self._emit(
                    "RPD002",
                    node,
                    f"time.{func.attr}() reads the wall clock; simulated "
                    "time must come from SimClock",
                )
            elif (
                value.id in ("datetime", "date")
                and func.attr in _WALLCLOCK_DATETIME_ATTRS
            ):
                self._emit(
                    "RPD002",
                    node,
                    f"{value.id}.{func.attr}() reads the wall clock; "
                    "simulated time must come from SimClock",
                )
        elif (
            isinstance(value, ast.Attribute)
            and value.attr == "datetime"
            and func.attr in _WALLCLOCK_DATETIME_ATTRS
        ):
            self._emit(
                "RPD002",
                node,
                f"datetime.{func.attr}() reads the wall clock; simulated "
                "time must come from SimClock",
            )

    # ------------------------------------------------------------------
    # RPD003: unordered iteration
    # ------------------------------------------------------------------
    def _check_iteration(self, iterable: ast.expr) -> None:
        if _is_bare_set_expr(iterable):
            self._emit(
                "RPD003",
                iterable,
                "iteration over a bare set/frozenset visits hash order; "
                "wrap it in sorted(...)",
            )
        elif _is_listing_call(iterable):
            self._emit(
                "RPD003",
                iterable,
                "directory listings are filesystem-ordered; wrap the "
                "listing in sorted(...)",
            )

    def _check_order_sensitive_agg(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_SENSITIVE_AGGS
            and node.args
            and (_is_bare_set_expr(node.args[0]) or _is_listing_call(node.args[0]))
        ):
            self._emit(
                "RPD003",
                node,
                f"{node.func.id}() over an unordered iterable depends on "
                "hash/filesystem order; wrap it in sorted(...)",
            )

    # ------------------------------------------------------------------
    # RPD004: unguarded obs call sites
    # ------------------------------------------------------------------
    def _check_obs_call(self, node: ast.Call, guards: set[str]) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        receiver = func.value
        if _terminal_name(receiver) in OBS_HANDLE_NAMES and _key(receiver) not in guards:
            self._emit(
                "RPD004",
                node,
                f"call on obs handle {ast.unparse(receiver)!r} without an "
                f"`if {ast.unparse(receiver)} is not None` guard "
                "(observability must stay passive)",
            )

    def _check_obs_store(
        self, targets: list[ast.expr], guards: set[str], stmt: ast.stmt
    ) -> None:
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            receiver = target.value
            if (
                _terminal_name(receiver) in OBS_HANDLE_NAMES
                and _key(receiver) not in guards
            ):
                self._emit(
                    "RPD004",
                    stmt,
                    f"store on obs handle {ast.unparse(receiver)!r} without "
                    f"an `if {ast.unparse(receiver)} is not None` guard "
                    "(observability must stay passive)",
                )

    # ------------------------------------------------------------------
    # RPD005: Spec field coverage in to_dict
    # ------------------------------------------------------------------
    def _check_spec_class(self, node: ast.ClassDef) -> None:
        if not node.name.endswith("Spec"):
            return
        to_dict = next(
            (
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "to_dict"
            ),
            None,
        )
        if to_dict is None:
            return  # no canonical form: nothing to be incomplete against
        mentioned: set[str] = set()
        for sub in ast.walk(to_dict):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                mentioned.add(sub.value)
            elif (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                mentioned.add(sub.attr)
        for item in node.body:
            if not isinstance(item, ast.AnnAssign) or not isinstance(
                item.target, ast.Name
            ):
                continue
            name = item.target.id
            if name.startswith("_") or "ClassVar" in ast.dump(item.annotation):
                continue
            if name in mentioned:
                continue
            if f"{node.name}.{name}" in RPD005_EXCLUSIONS:
                continue
            self._emit(
                "RPD005",
                item,
                f"field {node.name}.{name} never appears in to_dict(): "
                "it cannot participate in the cache key (add it, or list "
                "it in repro.check.rules.RPD005_EXCLUSIONS with a reason)",
            )

    # ------------------------------------------------------------------
    # RPD006: Param bounds
    # ------------------------------------------------------------------
    def _check_param_bounds(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Name) and node.func.id == "Param"):
            return
        kind = None
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            kind = node.args[1].value
        for kw in node.keywords:
            if kw.arg == "kind" and isinstance(kw.value, ast.Constant):
                kind = kw.value.value
        if kind not in ("int", "float"):
            return
        bounded = any(
            kw.arg in ("minimum", "maximum", "exclusive_min", "exclusive_max")
            for kw in node.keywords
        )
        if not bounded:
            name = ""
            if node.args and isinstance(node.args[0], ast.Constant):
                name = f" {node.args[0].value!r}"
            self._emit(
                "RPD006",
                node,
                f"numeric Param{name} declares no bounds "
                "(minimum/maximum/exclusive_min/exclusive_max): nonsense "
                "values surface mid-run instead of at parse time",
            )


def lint_file(path: Path, source: str | None = None) -> tuple[list[Finding], list[Suppression]]:
    """Lint one file; returns (surviving findings, suppression inventory)."""
    parts = _rel_parts(path)
    if not _rule_scope(parts):
        return [], []  # out of scope entirely (the check package itself)
    text = path.read_text(encoding="utf-8") if source is None else source
    display = str(path)
    tree = ast.parse(text, filename=display)
    raw = _FileLinter(display, parts, tree).run()
    by_line = parse_suppressions(text, display)
    survivors: list[Finding] = []
    for finding in raw:
        hit = next(
            (
                s
                for s in by_line.get(finding.line, ())
                if s.rule == finding.rule
            ),
            None,
        )
        if hit is not None:
            hit.used = True
        else:
            survivors.append(finding)
    suppressions = [s for entries in by_line.values() for s in entries]
    for s in suppressions:
        if not s.used and s.rule in RULES and s.rule != "RPD000":
            survivors.append(
                Finding(
                    rule="RPD000",
                    path=display,
                    line=s.line,
                    col=1,
                    message=(
                        f"suppression for {s.rule} matches no finding on this "
                        "line (fixed violation, or comment drifted) — delete it"
                    ),
                )
            )
    return survivors, suppressions


def lint_paths(paths: list[Path]) -> LintResult:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    result = LintResult()
    for file_path in files:
        findings, suppressions = lint_file(file_path)
        result.findings.extend(findings)
        result.suppressions.extend(suppressions)
        result.files_checked += 1
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    result.suppressions.sort(key=lambda s: (s.path, s.line, s.rule))
    return result
