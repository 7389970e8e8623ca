"""Concurrency-safety rules over the asyncio/multiprocessing service stack.

Five rules guard the bug classes the service layers (PR 5/6) are
exposed to, using the project call graph
(:mod:`repro.analysis.callgraph`) where syntax alone cannot answer:

* ``async-blocking-call`` — a blocking primitive (``time.sleep``, sync
  sqlite/socket/subprocess/file I/O, a ``wait=True`` executor shutdown)
  reachable from an ``async def``, transitively through sync helpers.
  Off-loading through ``run_in_executor``/``asyncio.to_thread`` is
  naturally clean: by-reference and lambda arguments are not call
  edges of the async caller.
* ``unawaited-coroutine`` — the result of a call known to return a
  coroutine is discarded as a bare expression statement.
* ``fire-and-forget-task`` — a ``create_task``/``ensure_future`` result
  is discarded; an unreferenced task can be garbage-collected mid-
  flight and its exceptions are lost.
* ``pool-child-init`` — every ``ProcessPoolExecutor`` construction must
  pass ``initializer=pool_child_init``. Pool children inherit the
  parent loop's signal wakeup fd; a child that takes a SIGTERM without
  the initializer writes into the *parent's* wakeup pipe and triggers a
  spurious drain (the PR-6 bug, enforced forever).
* ``route-conformance`` — the hand-framed HTTP protocol cannot drift:
  every route ``ServiceClient`` sends must match a handler shape in
  ``SimulationServer._route``, and every handler shape must have a
  sender.
  Handler shapes are recovered by walking the ``_route`` ``if`` chains
  symbolically (``parts == [...]``, ``parts[i] == "lit"``,
  ``len(parts) >= n``, ``method == "X"``); dynamic path segments match
  as wildcards.

All resolution is best effort: an unresolvable call is silent, never a
guess (false-negative limits are catalogued in DESIGN §16).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.callgraph import CallGraph, CallSite, iter_scope_nodes
from repro.analysis.engine import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    dotted_name,
    find_class,
)

# ----------------------------------------------------------------------
# blocking-call catalogue
# ----------------------------------------------------------------------
#: external callables that block the event loop when called directly
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "sqlite3.connect",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "os.system", "os.popen", "os.wait", "os.waitpid",
    "socket.create_connection", "socket.getaddrinfo",
    "socket.gethostbyname", "socket.gethostbyaddr",
    "urllib.request.urlopen",
    "shutil.copy", "shutil.copy2", "shutil.copytree", "shutil.rmtree",
    "open", "io.open",
})

#: value origins whose *every* method call blocks (sync handles):
#: ``conn = sqlite3.connect(...); conn.execute(...)`` etc.
BLOCKING_ORIGINS = (
    "sqlite3.connect",
    "socket.socket",
    "socket.create_connection",
    "open",
    "io.open",
    "http.client.HTTPConnection",
    "http.client.HTTPSConnection",
)

#: executor shutdowns block unless called with ``wait=False``
_EXECUTOR_SHUTDOWNS = ("ProcessPoolExecutor.shutdown",
                       "ThreadPoolExecutor.shutdown")

#: stdlib coroutine factories for the unawaited-coroutine rule
KNOWN_COROUTINES = frozenset({
    "asyncio.sleep", "asyncio.gather", "asyncio.wait", "asyncio.wait_for",
    "asyncio.open_connection", "asyncio.start_server", "asyncio.to_thread",
    "asyncio.shield", "asyncio.wait_closed",
})

_EXECUTOR_HINT = ("move it off the event loop "
                  "(run_in_executor / asyncio.to_thread)")


def _blocking_external(site: CallSite) -> Optional[str]:
    """The blocking external name a call site hits, if any."""
    ext = site.external
    if ext is None:
        return None
    if ext in BLOCKING_CALLS:
        return ext
    for origin in BLOCKING_ORIGINS:
        if ext.startswith(origin + "."):
            return ext
    for suffix in _EXECUTOR_SHUTDOWNS:
        if ext.endswith(suffix) and not _has_wait_false(site.node):
            return ext
    return None


def _has_wait_false(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "wait" and isinstance(kw.value, ast.Constant):
            return kw.value.value is False
    return False


class AsyncBlockingCallRule(Rule):
    """Blocking primitives reachable from ``async def`` bodies."""

    name = "async-blocking-call"
    description = ("an async function (transitively) calls a blocking "
                   "primitive on the event loop")
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = project.callgraph()
        memo: Dict[str, Optional[List[str]]] = {}
        for fn in graph.iter_functions():
            if not fn.is_async:
                continue
            module = project.modules.get(fn.module)
            if module is None:
                continue
            for site in fn.calls:
                ext = _blocking_external(site)
                if ext is not None:
                    yield self.finding(
                        module, site.line,
                        "async '%s' calls blocking '%s'; %s"
                        % (fn.short_name, ext, _EXECUTOR_HINT))
                    continue
                if site.callee is None:
                    continue
                callee = graph.functions.get(site.callee)
                if callee is None or callee.is_async:
                    continue
                chain = self._chain(graph, site.callee, memo, set())
                if chain is not None:
                    yield self.finding(
                        module, site.line,
                        "async '%s' reaches blocking '%s' via %s; %s"
                        % (fn.short_name, chain[-1],
                           " -> ".join(chain[:-1]), _EXECUTOR_HINT))

    def _chain(
        self,
        graph: CallGraph,
        qname: str,
        memo: Dict[str, Optional[List[str]]],
        active: Set[str],
    ) -> Optional[List[str]]:
        """Shortest-found path from sync ``qname`` down to a blocking
        primitive: ``[helper, helper, ..., external]``; None if clean."""
        if qname in memo:
            return memo[qname]
        if qname in active:
            return None  # cycle: never concluded blocking through itself
        active.add(qname)
        fn = graph.functions[qname]
        result: Optional[List[str]] = None
        for site in fn.calls:
            ext = _blocking_external(site)
            if ext is not None:
                result = [fn.short_name, ext]
                break
            if site.callee is None:
                continue
            callee = graph.functions.get(site.callee)
            if callee is None or callee.is_async:
                continue
            sub = self._chain(graph, site.callee, memo, active)
            if sub is not None:
                result = [fn.short_name] + sub
                break
        active.discard(qname)
        memo[qname] = result
        return result


class UnawaitedCoroutineRule(Rule):
    """A known-coroutine call whose result is discarded unawaited."""

    name = "unawaited-coroutine"
    description = ("a coroutine call result is discarded without "
                   "await/create_task/gather")
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = project.callgraph()
        for fn in graph.iter_functions():
            module = project.modules.get(fn.module)
            if module is None:
                continue
            for node in iter_scope_nodes(fn.node):
                if not (isinstance(node, ast.Expr)
                        and isinstance(node.value, ast.Call)):
                    continue
                site = graph.site_for(node.value)
                if site is None:
                    continue
                label: Optional[str] = None
                if site.callee is not None:
                    callee = graph.functions.get(site.callee)
                    if callee is not None and callee.is_async:
                        label = callee.short_name
                elif site.external in KNOWN_COROUTINES:
                    label = site.external
                if label is not None:
                    yield self.finding(
                        module, site.line,
                        "coroutine '%s' is never awaited; await it or "
                        "schedule it with asyncio.create_task" % label)


class FireAndForgetTaskRule(Rule):
    """A scheduled task whose handle is dropped on the floor."""

    name = "fire-and-forget-task"
    description = ("a create_task/ensure_future result is discarded; "
                   "unreferenced tasks can be garbage-collected mid-flight")
    scope = "module"

    _SCHEDULERS = frozenset({"create_task", "ensure_future"})

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            name: Optional[str] = None
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            if name in self._SCHEDULERS:
                yield self.finding(
                    module, node.value.lineno,
                    "task from %s(...) is discarded; keep the handle "
                    "(assign it or add it to a tracked set) so the task "
                    "is not garbage-collected mid-flight and its "
                    "exceptions are observed" % name)


class PoolChildInitRule(Rule):
    """Every ProcessPoolExecutor must install ``pool_child_init``."""

    name = "pool-child-init"
    description = ("ProcessPoolExecutor constructions must pass "
                   "initializer=pool_child_init (children inherit the "
                   "parent loop's signal wakeup fd)")
    scope = "module"

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or name.split(".")[-1] != "ProcessPoolExecutor":
                continue
            init = None
            splatted = False
            for kw in node.keywords:
                if kw.arg is None:
                    splatted = True
                elif kw.arg == "initializer":
                    init = kw.value
            if init is None:
                if splatted:
                    continue  # **kwargs may carry it; cannot tell
                yield self.finding(
                    module, node.lineno,
                    "ProcessPoolExecutor without initializer="
                    "pool_child_init: pool children inherit the parent's "
                    "signal wakeup fd and SIGTERM dispositions (see "
                    "repro.utils.pool_child_init)")
                continue
            init_name = dotted_name(init)
            leaf = init_name.split(".")[-1] if init_name else None
            if leaf != "pool_child_init":
                yield self.finding(
                    module, node.lineno,
                    "ProcessPoolExecutor initializer is %s, expected "
                    "pool_child_init (children must detach the parent's "
                    "signal plumbing first)"
                    % (init_name or "not a plain name"))


# ----------------------------------------------------------------------
# route conformance
# ----------------------------------------------------------------------
class _RouteEnv:
    """Accumulated constraints on (method, parts) along one ``if`` path."""

    __slots__ = ("method", "length", "minlen", "segs")

    def __init__(self) -> None:
        self.method: Optional[str] = None
        self.length: Optional[int] = None
        self.minlen = 0
        self.segs: Dict[int, str] = {}

    def copy(self) -> "_RouteEnv":
        env = _RouteEnv()
        env.method = self.method
        env.length = self.length
        env.minlen = self.minlen
        env.segs = dict(self.segs)
        return env


#: a route shape: (HTTP method, path segments with "*" wildcards)
_Shape = Tuple[str, Tuple[str, ...]]


def _apply_test(test: ast.expr, env: _RouteEnv) -> None:
    """Fold one recognised ``if`` condition into ``env`` (unknown
    conjuncts are ignored — an over-approximation, never a guess)."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for value in test.values:
            _apply_test(value, env)
        return
    if isinstance(test, ast.Name) and test.id == "parts":
        env.minlen = max(env.minlen, 1)
        return
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and len(test.comparators) == 1):
        return
    left, op, right = test.left, test.ops[0], test.comparators[0]
    if isinstance(left, ast.Name) and left.id == "method" \
            and isinstance(op, ast.Eq) \
            and isinstance(right, ast.Constant) \
            and isinstance(right.value, str):
        env.method = right.value
        return
    if isinstance(left, ast.Name) and left.id == "parts" \
            and isinstance(op, ast.Eq):
        literal = _string_list(right)
        if literal is not None:
            env.length = len(literal)
            for i, seg in enumerate(literal):
                env.segs[i] = seg
        return
    if isinstance(left, ast.Call) and isinstance(left.func, ast.Name) \
            and left.func.id == "len" and len(left.args) == 1 \
            and isinstance(left.args[0], ast.Name) \
            and left.args[0].id == "parts" \
            and isinstance(right, ast.Constant) \
            and isinstance(right.value, int):
        if isinstance(op, ast.Eq):
            env.length = right.value
        elif isinstance(op, ast.GtE):
            env.minlen = max(env.minlen, right.value)
        elif isinstance(op, ast.Gt):
            env.minlen = max(env.minlen, right.value + 1)
        return
    if isinstance(left, ast.Subscript) and isinstance(left.value, ast.Name) \
            and left.value.id == "parts" and isinstance(op, ast.Eq):
        if isinstance(left.slice, ast.Constant) \
                and isinstance(left.slice.value, int) \
                and isinstance(right, ast.Constant) \
                and isinstance(right.value, str):
            index = left.slice.value
            env.segs[index] = right.value
            env.minlen = max(env.minlen, index + 1)
            return
        if isinstance(left.slice, ast.Slice) and left.slice.upper is None \
                and left.slice.step is None \
                and isinstance(left.slice.lower, ast.Constant) \
                and isinstance(left.slice.lower.value, int):
            literal = _string_list(right)
            if literal is not None:
                start = left.slice.lower.value
                env.length = start + len(literal)
                for i, seg in enumerate(literal):
                    env.segs[start + i] = seg
        return


def _string_list(node: ast.expr) -> Optional[List[str]]:
    if not isinstance(node, ast.List):
        return None
    out: List[str] = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant)
                and isinstance(element.value, str)):
            return None
        out.append(element.value)
    return out


_RouteDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _collect_shapes(fn: _RouteDef) -> Dict[_Shape, int]:
    """Shapes a ``_route`` dispatcher answers. A shape is recorded at a
    ``return`` whose path constraints pin an exact segment count and a
    single method; unconstrained returns (404 fallthroughs) yield
    nothing."""
    shapes: Dict[_Shape, int] = {}

    def walk(stmts: Sequence[ast.stmt], env: _RouteEnv) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                child = env.copy()
                _apply_test(stmt.test, child)
                walk(stmt.body, child)
                walk(stmt.orelse, env)
            elif isinstance(stmt, ast.Return):
                if env.method is None or env.length is None:
                    continue
                if env.length < env.minlen:
                    continue
                segs = tuple(env.segs.get(i, "*")
                             for i in range(env.length))
                shapes.setdefault((env.method, segs), stmt.lineno)
            elif isinstance(stmt, (ast.With, ast.AsyncWith, ast.For,
                                   ast.AsyncFor, ast.While)):
                walk(stmt.body, env.copy())
            elif isinstance(stmt, ast.Try):
                walk(stmt.body, env.copy())
                for handler in stmt.handlers:
                    walk(handler.body, env.copy())
                walk(stmt.finalbody, env.copy())

    walk(fn.body, _RouteEnv())
    return shapes


#: one ``%`` conversion spec: key, flags, width, precision, type
_CONVERSION = re.compile(
    r"%(?:\([^)]*\))?[#0 +-]*(?:\*|\d+)?(?:\.(?:\*|\d+))?"
    r"[diouxXeEfFgGcrsa]")


def _path_text(expr: ast.expr) -> Optional[str]:
    """Render a client path expression with dynamic pieces as ``*``."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Mod) \
            and isinstance(expr.left, ast.Constant) \
            and isinstance(expr.left.value, str):
        return _CONVERSION.sub("*", expr.left.value)
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        left = _path_text(expr.left)
        if left is None:
            return None
        right = _path_text(expr.right)
        return left + (right if right is not None else "*")
    if isinstance(expr, ast.JoinedStr):
        out = []
        for value in expr.values:
            if isinstance(value, ast.Constant) \
                    and isinstance(value.value, str):
                out.append(value.value)
            else:
                out.append("*")
        return "".join(out)
    return None


def _path_segments(expr: ast.expr) -> Optional[Tuple[str, ...]]:
    """Path segments a send targets; a ``?query`` is not part of them."""
    text = _path_text(expr)
    if text is None or not text.startswith("/"):
        return None
    path = text.partition("?")[0]
    return tuple("*" if "*" in seg else seg
                 for seg in path.split("/") if seg)


def _shape_matches(send: _Shape, handler: _Shape) -> bool:
    if send[0] != handler[0] or len(send[1]) != len(handler[1]):
        return False
    return all(a == b or a == "*" or b == "*"
               for a, b in zip(send[1], handler[1]))


def _render(shape: _Shape) -> str:
    return "%s /%s" % (shape[0], "/".join(shape[1]))


class _Send:
    """One client-side request: (method, segments) at a source line."""

    __slots__ = ("module", "line", "shape")

    def __init__(self, module: ModuleInfo, line: int, shape: _Shape):
        self.module = module
        self.line = line
        self.shape = shape


class _Dispatch:
    """The server's ``_route`` dispatcher and its recovered shapes."""

    __slots__ = ("module", "cls", "shapes")

    def __init__(self, module: ModuleInfo, cls: str,
                 shapes: Dict[_Shape, int]):
        self.module = module
        self.cls = cls
        self.shapes = shapes


class RouteConformanceRule(Rule):
    """Client route strings and ``_route`` dispatch shapes must agree."""

    name = "route-conformance"
    description = ("every client-sent route needs a matching _route "
                   "handler shape, and every handler shape a sender")
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        dispatch = self._find_dispatcher(project)
        sends = self._client_sends(project)
        if dispatch is None or sends is None:
            return
        yield from self._check_sends(sends, dispatch)
        yield from self._check_handlers(dispatch, sends)

    # -- extraction ----------------------------------------------------
    def _find_dispatcher(self, project: Project) -> Optional[_Dispatch]:
        module = project.get_by_suffix("service.server")
        if module is None:
            return None
        cls = find_class(module.tree, "SimulationServer")
        if cls is None:
            return None
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and item.name == "_route":
                return _Dispatch(module, cls.name, _collect_shapes(item))
        return None

    def _client_sends(self, project: Project) -> Optional[List[_Send]]:
        module = project.get_by_suffix("service.client")
        if module is None:
            return None
        sends: List[_Send] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in ("_checked", "_request")):
                continue
            if len(node.args) < 2:
                continue
            method = node.args[0]
            if not (isinstance(method, ast.Constant)
                    and isinstance(method.value, str)):
                continue
            segments = _path_segments(node.args[1])
            if segments is None:
                continue
            sends.append(_Send(module, node.lineno,
                               (method.value, segments)))
        return sends

    # -- checks --------------------------------------------------------
    def _check_sends(self, sends: List[_Send],
                     dispatch: _Dispatch) -> Iterable[Finding]:
        """Direction 1: every send matches some handler shape."""
        for send in sends:
            if any(_shape_matches(send.shape, shape)
                   for shape in dispatch.shapes):
                continue
            yield self.finding(
                send.module, send.line,
                "client sends %s but no handler shape in %s._route "
                "matches (protocol drift?)"
                % (_render(send.shape), dispatch.cls))

    def _check_handlers(self, dispatch: _Dispatch,
                        sends: List[_Send]) -> Iterable[Finding]:
        """Direction 2: every handler shape has a sender."""
        for shape in sorted(dispatch.shapes):
            if any(_shape_matches(send.shape, shape) for send in sends):
                continue
            yield self.finding(
                dispatch.module, dispatch.shapes[shape],
                "route %s in %s._route has no client-side sender "
                "(dead route or protocol drift?)"
                % (_render(shape), dispatch.cls))
