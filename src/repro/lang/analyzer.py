"""Scope analysis and closure conversion for Mul-T.

Turns reader forms into the AST of :mod:`repro.lang.ast`:

* resolves every variable to a local slot, a closure-capture index, or
  a top-level definition;
* converts ``lambda`` into flat closures (free variables become capture
  expressions evaluated in the enclosing scope);
* wraps every ``(future E)`` body in a zero-argument thunk lambda (or
  drops the wrapper entirely in *strip* mode, producing the sequential
  program the paper's "T seq" / "Mul-T seq" columns run);
* desugars ``cond``/``and``/``or``/``when``/``unless``/``let*``;
* marks self-recursive tail calls so the code generator can reuse the
  frame (loops written as tail recursion run in constant stack).
"""

import itertools

from repro.errors import CompilerError
from repro.lang import ast, reader

#: Inline primitives with their accepted argument counts (None = n-ary).
PRIMITIVES = {
    "+": None, "-": None, "*": None,
    "quotient": 2, "remainder": 2,
    "<": 2, ">": 2, "<=": 2, ">=": 2, "=": 2,
    "eq?": 2, "zero?": 1, "null?": 1, "pair?": 1, "not": 1,
    "cons": 2, "car": 1, "cdr": 1, "set-car!": 2, "set-cdr!": 2,
    "vector-ref": 2, "vector-set!": 3, "vector-length": 1,
    "make-vector": (1, 2), "print": 1,
}

MAX_ARGS = 4

def _mangle(name):
    """Turn a Mul-T identifier into an assembler-safe label chunk."""
    out = []
    for ch in name:
        if ch.isalnum() or ch == "_":
            out.append(ch)
        else:
            out.append("_%02x" % ord(ch))
    return "".join(out)


class _FunctionScope:
    """Compile-time context of one lambda being analyzed."""

    def __init__(self, parent, name, params, label):
        self.parent = parent
        self.name = name
        self.label = label
        self.params = list(params)
        self.locals = {}          # name -> slot (innermost binding wins)
        self.shadow_stack = []    # for restoring let shadowing
        self.next_slot = 0
        self.max_slot = 0
        self.captures = []        # outer-scope nodes building the closure
        self.capture_index = {}   # name -> index in captures
        for param in params:
            self.bind(param)

    def bind(self, name):
        slot = self.next_slot
        self.shadow_stack.append((name, self.locals.get(name)))
        self.locals[name] = slot
        self.next_slot += 1
        self.max_slot = max(self.max_slot, self.next_slot)
        return slot

    def unbind(self, count):
        for _ in range(count):
            name, previous = self.shadow_stack.pop()
            if previous is None:
                del self.locals[name]
            else:
                self.locals[name] = previous
            self.next_slot -= 1


class Analyzer:
    """Builds a :class:`~repro.lang.ast.ProgramAST` from source forms.

    Args:
        strip_futures: compile ``(future E)`` as plain ``E`` (the
            sequential "T seq" configuration).
    """

    def __init__(self, strip_futures=False, lazy_futures=False):
        self.strip_futures = strip_futures
        self.lazy_futures = lazy_futures
        self.globals = {}          # name -> Definition
        self.lambdas = []
        self._declared_functions = set()
        # Label suffixes count per analyzer, so a given source always
        # gets the same ``fn_*_N`` names (monitor scripts and saved
        # breakpoints name them).
        self._labels = itertools.count(1)

    # -- top level ----------------------------------------------------------

    def analyze_program(self, source):
        """Analyze full program text; returns a ProgramAST."""
        forms = reader.read_program(source)
        definitions = []
        # Pass 1: collect global names (mutual recursion).
        parsed = []
        for form in forms:
            name, shape = self._parse_define(form)
            if name in self.globals:
                raise CompilerError("duplicate definition of %s" % name)
            definition = ast.Definition(name)
            self.globals[name] = definition
            if shape[0] == "function":
                self._declared_functions.add(name)
            definitions.append(definition)
            parsed.append((definition, shape))
        # Pass 2: analyze bodies.
        for definition, (kind, payload) in parsed:
            if kind == "function":
                params, body_forms = payload
                definition.lam = self._analyze_lambda(
                    definition.name, params, body_forms, parent=None)
            else:
                definition.const = self._constant(payload)
        return ast.ProgramAST(definitions, self.lambdas)

    def _parse_define(self, form):
        if not (isinstance(form, list) and form and form[0] == "define"):
            raise CompilerError("top level allows only define", form)
        if len(form) < 3:
            raise CompilerError("malformed define", form)
        target = form[1]
        if isinstance(target, list):
            name = target[0]
            params = target[1:]
            if not all(isinstance(p, str) for p in params):
                raise CompilerError("bad parameter list", form)
            return name, ("function", (params, form[2:]))
        if isinstance(target, str):
            if len(form) != 3:
                raise CompilerError("malformed constant define", form)
            if (isinstance(form[2], list) and form[2]
                    and form[2][0] == "lambda"):
                lam_form = form[2]
                return target, ("function", (lam_form[1], lam_form[2:]))
            return target, ("constant", form[2])
        raise CompilerError("malformed define", form)

    def _constant(self, form):
        if isinstance(form, bool) or isinstance(form, int):
            return ast.Const(form)
        if isinstance(form, list) and form and form[0] == "quote":
            return self._quoted(form[1])
        raise CompilerError(
            "top-level constants must be literals", form)

    def _quoted(self, datum):
        if isinstance(datum, (bool, int)):
            return ast.Const(datum)
        if datum == [] or datum == "nil":
            return ast.Const(())
        raise CompilerError("only atomic quotation is supported", datum)

    # -- lambdas ---------------------------------------------------------------

    def _analyze_lambda(self, name, params, body_forms, parent):
        if len(params) > MAX_ARGS:
            raise CompilerError(
                "%s: at most %d parameters are supported" % (name, MAX_ARGS))
        label = "fn_%s_%d" % (_mangle(name), next(self._labels))
        scope = _FunctionScope(parent, name, params, label)
        body = self._analyze_body(body_forms, scope, tail=True)
        lam = ast.Lambda(
            name=name,
            params=list(params),
            nlocals=scope.max_slot,
            body=body,
            captures=scope.captures,
            label=label,
        )
        self.lambdas.append(lam)
        return lam

    def _analyze_body(self, forms, scope, tail):
        if not forms:
            raise CompilerError("empty body in %s" % scope.name)
        nodes = []
        for form in forms[:-1]:
            nodes.append(self._analyze(form, scope, tail=False))
        nodes.append(self._analyze(forms[-1], scope, tail=tail))
        return nodes[0] if len(nodes) == 1 else ast.Begin(nodes)

    # -- expressions -----------------------------------------------------------

    def _analyze(self, form, scope, tail):
        if isinstance(form, bool) or isinstance(form, int):
            return ast.Const(form)
        if isinstance(form, str):
            return self._variable(form, scope)
        if not isinstance(form, list) or not form:
            raise CompilerError("cannot analyze", form)
        head = form[0]
        if isinstance(head, str):
            handler = getattr(
                self, "_form_" + _mangle(head), None) if head in _SPECIAL \
                else None
            if handler is not None:
                return handler(form, scope, tail)
            if head in PRIMITIVES and not self._is_bound(head, scope):
                return self._primitive(form, scope)
        return self._call(form, scope, tail)

    def _is_bound(self, name, scope):
        walk = scope
        while walk is not None:
            if name in walk.locals:
                return True
            walk = walk.parent
        return name in self.globals

    def _variable(self, name, scope):
        if name in scope.locals:
            return ast.LocalRef(name, scope.locals[name])
        # Search enclosing scopes: a hit becomes a capture chain.
        if scope.parent is not None:
            if name in scope.capture_index:
                return ast.CaptureRef(name, scope.capture_index[name])
            outer = self._variable_in(name, scope.parent)
            if outer is not None:
                index = len(scope.captures)
                scope.captures.append(outer)
                scope.capture_index[name] = index
                return ast.CaptureRef(name, index)
        if name in self.globals:
            return ast.GlobalRef(name)
        raise CompilerError("unbound variable %s in %s" % (name, scope.name))

    def _variable_in(self, name, scope):
        """Resolve a name against a specific scope (for capture chains)."""
        if name in scope.locals:
            return ast.LocalRef(name, scope.locals[name])
        if scope.parent is not None:
            if name in scope.capture_index:
                return ast.CaptureRef(name, scope.capture_index[name])
            outer = self._variable_in(name, scope.parent)
            if outer is not None:
                index = len(scope.captures)
                scope.captures.append(outer)
                scope.capture_index[name] = index
                return ast.CaptureRef(name, index)
        if name in self.globals:
            return ast.GlobalRef(name)
        return None

    def _primitive(self, form, scope):
        name = form[0]
        args = [self._analyze(f, scope, tail=False) for f in form[1:]]
        arity = PRIMITIVES[name]
        if arity is None:
            if name in ("+", "*") and len(args) < 2:
                raise CompilerError("%s needs at least 2 arguments" % name, form)
            if name == "-" and not 1 <= len(args) <= 2:
                raise CompilerError("- takes 1 or 2 arguments", form)
        elif isinstance(arity, tuple):
            if len(args) not in arity:
                raise CompilerError(
                    "%s takes %s arguments" % (name, "/".join(map(str, arity))),
                    form)
        elif len(args) != arity:
            raise CompilerError(
                "%s takes %d arguments, got %d" % (name, arity, len(args)),
                form)
        # Fold n-ary +/-/* into binary chains.
        if name in ("+", "*") and len(args) > 2:
            node = ast.PrimCall(name, args[:2])
            for arg in args[2:]:
                node = ast.PrimCall(name, [node, arg])
            return node
        if name == "-" and len(args) == 1:
            return ast.PrimCall("-", [ast.Const(0), args[0]])
        if name == "make-vector" and len(args) == 1:
            args.append(ast.Const(0))
        return ast.PrimCall(name, args)

    def _call(self, form, scope, tail):
        head = form[0]
        args = [self._analyze(f, scope, tail=False) for f in form[1:]]
        if len(args) > MAX_ARGS:
            raise CompilerError("calls support at most %d arguments" % MAX_ARGS,
                                form)
        if isinstance(head, str) and not self._locally_bound(head, scope) \
                and head in self.globals:
            definition = self.globals[head]
            label = "global:" + head
            self_tail = bool(
                tail and head == scope.name and scope.parent is None
                and len(args) == len(scope.params))
            return ast.Call(None, args, tail=tail, direct_label=head,
                            self_tail=self_tail)
        func = self._analyze(head, scope, tail=False)
        return ast.Call(func, args, tail=tail)

    def _locally_bound(self, name, scope):
        walk = scope
        while walk is not None:
            if name in walk.locals or name in walk.capture_index:
                return True
            walk = walk.parent
        return False

    # -- special forms -----------------------------------------------------------

    def _form_quote(self, form, scope, tail):
        return self._quoted(form[1])

    def _form_if(self, form, scope, tail):
        if len(form) not in (3, 4):
            raise CompilerError("malformed if", form)
        test = self._analyze(form[1], scope, tail=False)
        then = self._analyze(form[2], scope, tail=tail)
        alt = (self._analyze(form[3], scope, tail=tail)
               if len(form) == 4 else ast.Const(False))
        return ast.If(test, then, alt)

    def _form_begin(self, form, scope, tail):
        return self._analyze_body(form[1:], scope, tail)

    def _form_let(self, form, scope, tail):
        if len(form) < 3:
            raise CompilerError("malformed let", form)
        if isinstance(form[1], str):
            raise CompilerError(
                "named let is not supported; use a helper define", form)
        bindings = []
        inits = []
        for binding in form[1]:
            if not (isinstance(binding, list) and len(binding) == 2
                    and isinstance(binding[0], str)):
                raise CompilerError("malformed let binding", binding)
            # Inits are analyzed in the *outer* environment.
            inits.append(self._analyze(binding[1], scope, tail=False))
        for binding, init in zip(form[1], inits):
            slot = scope.bind(binding[0])
            bindings.append((binding[0], slot, init))
        body = self._analyze_body(form[2:], scope, tail)
        scope.unbind(len(bindings))
        return ast.Let(bindings, body)

    def _form_let_2a(self, form, scope, tail):  # let*
        if len(form) < 3:
            raise CompilerError("malformed let*", form)
        if not form[1]:
            return self._analyze_body(form[2:], scope, tail)
        first, rest = form[1][0], form[1][1:]
        return self._form_let(
            ["let", [first], ["let*", rest] + form[2:]], scope, tail)

    def _form_cond(self, form, scope, tail):
        clauses = form[1:]
        if not clauses:
            return ast.Const(False)
        first = clauses[0]
        if first[0] == "else":
            return self._analyze_body(first[1:], scope, tail)
        test = self._analyze(first[0], scope, tail=False)
        then = self._analyze_body(first[1:], scope, tail)
        alt = self._form_cond(["cond"] + list(clauses[1:]), scope, tail)
        return ast.If(test, then, alt)

    def _form_and(self, form, scope, tail):
        if len(form) == 1:
            return ast.Const(True)
        if len(form) == 2:
            return self._analyze(form[1], scope, tail)
        test = self._analyze(form[1], scope, tail=False)
        rest = self._form_and(["and"] + form[2:], scope, tail)
        return ast.If(test, rest, ast.Const(False))

    def _form_or(self, form, scope, tail):
        if len(form) == 1:
            return ast.Const(False)
        if len(form) == 2:
            return self._analyze(form[1], scope, tail)
        # (or a b...) without re-evaluating a: bind it.
        return self._form_let(
            ["let", [["or_tmp", form[1]]],
             ["if", "or_tmp", "or_tmp", ["or"] + form[2:]]], scope, tail)

    def _form_when(self, form, scope, tail):
        return self._form_if(
            ["if", form[1], ["begin"] + form[2:]], scope, tail)

    def _form_unless(self, form, scope, tail):
        return self._form_if(
            ["if", form[1], False, ["begin"] + form[2:]], scope, tail)

    def _form_set_21(self, form, scope, tail):  # set!
        if len(form) != 3 or not isinstance(form[1], str):
            raise CompilerError("malformed set!", form)
        name = form[1]
        value = self._analyze(form[2], scope, tail=False)
        if name in scope.locals:
            return ast.SetLocal(name, scope.locals[name], value)
        if name in self.globals:
            if self.globals[name].is_function:
                raise CompilerError("cannot set! a function binding", form)
            return ast.SetGlobal(name, value)
        raise CompilerError(
            "set! of captured variables is not supported "
            "(captures are by value)", form)

    def _form_lambda(self, form, scope, tail):
        if len(form) < 3 or not isinstance(form[1], list):
            raise CompilerError("malformed lambda", form)
        return self._analyze_lambda(
            "anon", form[1], form[2:], parent=scope)

    def _form_future(self, form, scope, tail):
        if len(form) != 2:
            raise CompilerError("future takes one expression", form)
        if self.strip_futures:
            return self._analyze(form[1], scope, tail=tail)
        if self.lazy_futures:
            call = self._direct_call_form(form[1], scope)
            if call is not None:
                return ast.FutureExpr(call=call)
        thunk = self._analyze_lambda("future_body", [], [form[1]],
                                     parent=scope)
        return ast.FutureExpr(thunk=thunk)

    def _direct_call_form(self, body, scope):
        """Analyze E as a direct call when the lazy fast path applies:
        a call to a known top-level function with at most 4 arguments.
        The child then runs inline with no thunk closure at all (the
        real lazy-task-creation code sequence of [17])."""
        if not (isinstance(body, list) and body
                and isinstance(body[0], str)
                and body[0] not in _SPECIAL
                and body[0] in self._declared_functions
                and not self._locally_bound(body[0], scope)
                and len(body) - 1 <= MAX_ARGS):
            return None
        node = self._call(body, scope, tail=False)
        if isinstance(node, ast.Call) and node.direct_label is not None:
            return node
        return None

    def _form_future_2don(self, form, scope, tail):  # future-on
        if len(form) != 3:
            raise CompilerError("future-on takes node and expression", form)
        node_expr = self._analyze(form[1], scope, tail=False)
        if self.strip_futures:
            return self._analyze(form[2], scope, tail=tail)
        thunk = self._analyze_lambda("future_body", [], [form[2]],
                                     parent=scope)
        return ast.FutureExpr(thunk, node_expr=node_expr)

    def _form_touch(self, form, scope, tail):
        if len(form) != 2:
            raise CompilerError("touch takes one expression", form)
        return ast.TouchExpr(self._analyze(form[1], scope, tail=False))


_SPECIAL = frozenset([
    "quote", "if", "begin", "let", "let*", "cond", "and", "or",
    "when", "unless", "set!", "lambda", "future", "future-on", "touch",
])
