"""Whole-program rules over the project call graph.

These rules consult :class:`~repro.lint.callgraph.ProjectContext`
(``ctx.project``) and therefore see hazards the per-file rules cannot:

- **DET005** -- a wall-clock / unseeded-entropy value *laundered through
  a helper function* into a deterministic stage.  The helper's own
  ``time.time()`` carries a legitimate ``allow-wall-clock`` pragma (it is
  a boundary by design), so DET001 stays quiet; the bug is the *caller*
  in a seeded/simulator/cache module consuming the returned value.
- **CONC001** -- mutation of module-level mutable state inside the
  call-graph closure of a worker entry point (a function handed to
  ``Process(target=...)``).  Under ``fork`` the child inherits a copy
  and the mutation silently diverges from the parent; under ``spawn``
  the module re-imports and the mutation is lost entirely.  Either way
  the "shared" state is a determinism trap.
- **CONC002** -- unpicklable values (lambdas, nested functions, open
  handles) handed to ``Process(...)`` or sent over a control pipe.
  These fail only at runtime, on the start-method the test matrix
  happens not to cover.
- **PAR001** -- a class exposing a paired scalar/bulk API
  (``invoke``/``invoke_many``, ``pick``/``pick_many``)
  that is not registered in the differential parity suite
  (``tests/test_simulator_equivalence.py`` / ``repro.platform.diffsim``).
  An unregistered bulk path is exactly how a vectorisation bug ships:
  nothing diffs it against the scalar loop.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext, dotted_name
from repro.lint.engine import Rule
from repro.lint.findings import Finding

__all__ = [
    "ForkUnsafeGlobalMutation",
    "InterproceduralEntropy",
    "ScalarBulkParity",
    "UnpicklableCrossProcess",
]

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
    "appendleft", "extendleft", "rotate",
})

#: Constructors producing mutable module-level bindings.
_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "Counter", "OrderedDict",
})

#: The scalar/bulk API pairs PAR001 enforces: scalar method -> the bulk
#: spellings that pair with it.
_PARITY_PAIRS = {
    "invoke": ("invoke_many",),
    "pick": ("pick_many",),
}


class InterproceduralEntropy(Rule):
    """DET005: no wall-clock/entropy value reaching a deterministic stage
    through a call hop.

    A function that *returns* a value derived from ``time.time()`` /
    ``os.urandom()`` / an unseeded ``np.random.default_rng()`` --
    directly or through further project calls -- taints every caller
    that consumes it.  Calling such a function from a module in the
    deterministic scope (seeded stages, simulator engines and policies,
    the cache, the shard workers) is flagged at the call site, with the
    taint source named.  Fix by passing the timestamp/Generator in as an
    explicit parameter, not by pragma: the whole point of the rule is
    that the pragma on the helper must not silence the caller.
    """

    rule_id = "DET005"
    slug = "interproc-entropy"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        project = ctx.project
        if project is None or not ctx.in_deterministic_scope:
            return
        tainted = project.returns_tainted
        for fn in project.functions.values():
            if fn.ctx is not ctx:
                continue
            for site in fn.calls:
                reason = tainted.get(site.target)
                if reason is None:
                    continue
                yield ctx.finding(
                    self.rule_id, self.slug, site.node,
                    f"`{fn.name}` is in a deterministic stage but calls "
                    f"`{site.target}`, whose return value derives from "
                    f"{reason}; thread the timestamp/Generator in as a "
                    "parameter instead of reading it behind a helper",
                )


def _local_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound locally in ``fn`` (params, assignments, with/for
    targets, nested defs) -- these shadow module globals."""
    names: set[str] = set()
    args = fn.args
    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        names.add(a.arg)
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not fn:
                names.add(node.name)
        elif isinstance(node, ast.Global):
            names.difference_update(node.names)
    return names


def _module_mutable_globals(tree: ast.Module) -> set[str]:
    """Top-level names bound to mutable containers."""
    out: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        mutable = isinstance(value, (ast.List, ast.Dict, ast.Set,
                                     ast.ListComp, ast.DictComp,
                                     ast.SetComp))
        if (not mutable and isinstance(value, ast.Call)):
            parts = dotted_name(value.func)
            mutable = bool(parts) and parts[-1] in _MUTABLE_CONSTRUCTORS
        if not mutable:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    out.add(name.id)
    return out


class ForkUnsafeGlobalMutation(Rule):
    """CONC001: no module-global mutation reachable from a worker entry.

    Scope: the call-graph closure of every function handed to
    ``Process(target=...)``.  Flags, inside that closure: ``global``
    rebinding; in-place mutation calls (``.append``/``.update``/...) and
    subscript stores on module-level mutable bindings; and attribute
    stores on imported modules.  Worker state must flow through the
    picklable work payload and return value -- module globals are a
    different object (fork) or a fresh import (spawn) in the child.
    """

    rule_id = "CONC001"
    slug = "fork-unsafe-global"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        project = ctx.project
        if project is None:
            return
        reachable = project.worker_reachable
        if not reachable:
            return
        mutable_globals = _module_mutable_globals(ctx.tree)
        for fn in project.functions.values():
            if fn.ctx is not ctx or fn.qualname not in reachable:
                continue
            yield from self._check_function(ctx, fn.node, fn.qualname,
                                            mutable_globals)

    def _check_function(
        self,
        ctx: FileContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        mutable_globals: set[str],
    ) -> Iterator[Finding]:
        locals_ = _local_names(fn)
        declared_global: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)

        def is_module_global(name: str) -> bool:
            return (name not in locals_
                    and (name in mutable_globals
                         or name in declared_global
                         or name in ctx.name_aliases))

        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ) and node.id in declared_global:
                yield ctx.finding(
                    self.rule_id, self.slug, node,
                    f"worker-reachable `{qualname}` rebinds module "
                    f"global `{node.id}`; the child's copy diverges "
                    "from the parent -- pass state through the work "
                    "payload instead",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and is_module_global(target.value.id)):
                        yield ctx.finding(
                            self.rule_id, self.slug, node,
                            f"worker-reachable `{qualname}` writes into "
                            f"module-level container "
                            f"`{target.value.id}`; fork-unsafe shared "
                            "state -- return results instead",
                        )
                    elif (isinstance(target, ast.Attribute)
                          and isinstance(target.value, ast.Name)
                          and target.value.id in ctx.module_aliases):
                        yield ctx.finding(
                            self.rule_id, self.slug, node,
                            f"worker-reachable `{qualname}` assigns "
                            f"attribute on module "
                            f"`{target.value.id}`; fork-unsafe shared "
                            "state",
                        )
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATING_METHODS
                  and isinstance(node.func.value, ast.Name)
                  and is_module_global(node.func.value.id)):
                yield ctx.finding(
                    self.rule_id, self.slug, node,
                    f"worker-reachable `{qualname}` mutates "
                    f"module-level `{node.func.value.id}."
                    f"{node.func.attr}(...)`; fork-unsafe shared state "
                    "-- pass state through the work payload",
                )


def _nested_defs(tree: ast.Module) -> set[str]:
    """Names of functions defined inside other functions (unpicklable:
    their qualname has a ``<locals>`` segment)."""
    nested: set[str] = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(outer):
            if node is outer:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.add(node.name)
    return nested


class UnpicklableCrossProcess(Rule):
    """CONC002: no unpicklable values into ``Process`` or pipe sends.

    Lambdas and nested functions cannot be pickled (their qualified name
    contains ``<locals>``); open file handles cannot either.  Passing
    one as a ``Process`` target/argument or through ``Connection.send``
    works under ``fork`` by inheritance and then explodes under
    ``spawn`` -- the start method CI least often exercises.  Scoped to
    files that themselves create processes or pipes.
    """

    rule_id = "CONC002"
    slug = "unpicklable-ipc"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._uses_multiprocessing(ctx):
            return
        nested = _nested_defs(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            parts = dotted_name(node.func)
            if parts and parts[-1] == "Process":
                yield from self._check_process_call(ctx, node, nested)
            elif (isinstance(node.func, ast.Attribute)
                  and node.func.attr == "send"):
                for arg in node.args:
                    yield from self._check_payload(
                        ctx, arg, nested, via="Connection.send",
                    )

    @staticmethod
    def _uses_multiprocessing(ctx: FileContext) -> bool:
        for alias in (*ctx.module_aliases.values(),
                      *ctx.name_aliases.values()):
            if alias.startswith("multiprocessing"):
                return True
        return "multiprocessing" in ctx.source

    def _check_process_call(
        self, ctx: FileContext, node: ast.Call, nested: set[str]
    ) -> Iterator[Finding]:
        for kw in node.keywords:
            if kw.arg == "target":
                yield from self._check_payload(
                    ctx, kw.value, nested, via="Process target",
                )
            elif kw.arg == "args":
                elements = (kw.value.elts
                            if isinstance(kw.value, (ast.Tuple, ast.List))
                            else [kw.value])
                for el in elements:
                    yield from self._check_payload(
                        ctx, el, nested, via="Process args",
                    )

    def _check_payload(
        self, ctx: FileContext, expr: ast.expr, nested: set[str],
        via: str,
    ) -> Iterator[Finding]:
        if isinstance(expr, ast.Lambda):
            yield ctx.finding(
                self.rule_id, self.slug, expr,
                f"lambda passed as {via}: unpicklable under the spawn "
                "start method; use a module-level function",
            )
        elif isinstance(expr, ast.Name) and expr.id in nested:
            yield ctx.finding(
                self.rule_id, self.slug, expr,
                f"nested function `{expr.id}` passed as {via}: its "
                "qualified name contains `<locals>`, so it cannot be "
                "pickled; hoist it to module level",
            )
        elif isinstance(expr, ast.Call):
            parts = dotted_name(expr.func)
            if parts and parts[-1] == "open":
                yield ctx.finding(
                    self.rule_id, self.slug, expr,
                    f"open file handle passed as {via}: handles do not "
                    "pickle; pass the path and open inside the worker",
                )


def _method_is_declaration(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> bool:
    """Ellipsis/pass/docstring-only bodies declare an interface, they do
    not implement a bulk path."""
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ) and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis)
        or (isinstance(stmt, ast.Raise)
            and stmt.exc is not None
            and "NotImplementedError" in ast.dump(stmt.exc))
        for stmt in body
    )


class ScalarBulkParity(Rule):
    """PAR001: paired scalar/bulk APIs must be in the parity suite.

    The array engine's whole trust model is "the bulk path is
    byte-identical to the scalar loop, and a differential suite proves
    it".  A class that grows ``invoke_many`` beside ``invoke`` (or ``pick_many`` beside ``pick``) without appearing in
    ``tests/test_simulator_equivalence.py`` or
    ``repro.platform.diffsim`` has an unverified fast path -- the exact
    gap differential testing exists to close.  Protocol/ABC
    declarations are exempt (they describe the pair; implementations
    register).
    """

    rule_id = "PAR001"
    slug = "scalar-bulk-parity"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        project = ctx.project
        if project is None or not ctx.module.startswith("repro."):
            return
        for cls in project.classes.values():
            if cls.ctx is not ctx or cls.is_interface:
                continue
            for scalar, bulks in _PARITY_PAIRS.items():
                scalar_fn = cls.methods.get(scalar)
                paired = [b for b in bulks if b in cls.methods]
                if scalar_fn is None or not paired:
                    continue
                if _method_is_declaration(scalar_fn.node) and all(
                    _method_is_declaration(cls.methods[b].node)
                    for b in paired
                ):
                    continue
                if cls.name in project.harness_names:
                    continue
                yield ctx.finding(
                    self.rule_id, self.slug, cls.node,
                    f"`{cls.name}` pairs `{scalar}` with "
                    f"{'/'.join(paired)} but is not registered in the "
                    "scalar/bulk parity suite "
                    "(tests/test_simulator_equivalence.py or "
                    "repro.platform.diffsim); add a differential test "
                    "pinning bulk == scalar byte for byte",
                )
