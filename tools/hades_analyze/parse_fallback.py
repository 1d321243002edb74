"""Built-in C++ structural parser producing the hades-analyze IR.

It is a *structural* parser, not a full C++ frontend: it tracks
namespace/class/function nesting by brace matching, recognizes the
declaration forms this codebase actually uses, and extracts exactly the
facts the rules consume (fields, writes, calls, ranged-fors,
comparisons, locals, lambdas). It needs no compiler, so the analyzer
runs anywhere Python does; the fixture suite pins every rule to it.
"""

from .cpp_lexer import lex
from .model import (
    Alias, CallSite, ClassInfo, Comparison, FieldInfo, FileIR,
    FunctionInfo, RangedFor, VarDecl, WriteSite,
)

# Container methods that mutate their receiver.
MUTATORS = {
    "push_back", "pop_back", "emplace_back", "push", "pop", "emplace",
    "insert", "erase", "clear", "resize", "assign", "fill",
    "push_front", "pop_front", "merge_from", "notify",
}
# NOTE: 'store' is deliberately absent -- in this codebase x.store(...)
# is overwhelmingly an accessor (ReplicaManager::store(node)), and the
# few std::atomic stores live in the kernel, outside the A1 targets.

KEYWORDS_NOT_CALLEES = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "catch", "new", "delete", "co_await", "co_return", "co_yield",
    "throw", "decltype", "assert", "always_assert", "static_assert",
    "defined", "noexcept", "alignas", "typeid",
}

TYPE_KEYWORDS = {
    "const", "constexpr", "static", "inline", "mutable", "volatile",
    "unsigned", "signed", "virtual", "explicit", "friend", "typename",
    "thread_local", "extern", "register",
}

CMP_OPS = {"==", "!=", "<=", ">="}


def no_space_before(t):
    return t in {
        ",", ";", ")", "]", "}", ">", "::", ".", "->", "++", "--", "(",
        "[", "<",
    }


def no_space_after(t):
    return t in {"(", "[", "{", "<", "::", ".", "->", "!", "~", "*", "&"}


def spell(toks):
    """Re-render a token slice as compact source text."""
    out = []
    prev = None
    for t in toks:
        if out and not no_space_before(t.text) and not (
            prev is not None and no_space_after(prev)
        ):
            out.append(" ")
        out.append(t.text)
        prev = t.text
    return "".join(out)


class Parser:
    def __init__(self, path, text):
        self.path = path
        self.toks, comments = lex(text)
        self.ir = FileIR(path=path, comments=comments)
        self.n = len(self.toks)

    # --- token helpers ----------------------------------------------------
    def tk(self, i):
        return self.toks[i] if 0 <= i < self.n else None

    def text(self, i):
        t = self.tk(i)
        return t.text if t else ""

    def match_forward(self, i, open_ch, close_ch):
        """Index just past the matching close for the open at @p i."""
        depth = 0
        while i < self.n:
            c = self.text(i)
            if c == open_ch:
                depth += 1
            elif c == close_ch:
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return self.n

    def skip_angles(self, i):
        """If toks[i] == '<' opening a template argument list, return
        the index just past the matching '>'."""
        depth = 0
        while i < self.n:
            c = self.text(i)
            if c == "<":
                depth += 1
            elif c in (">", ">>"):
                depth -= 2 if c == ">>" else 1
                if depth <= 0:
                    return i + 1
            elif c in (";", "{"):
                return i  # not a template list after all
            i += 1
        return self.n

    # --- top level --------------------------------------------------------
    def parse(self):
        self.parse_scope(0, self.n, ns=[], cls=None)
        return self.ir

    def parse_scope(self, i, end, ns, cls):
        """Parse declarations between token indices [i, end)."""
        while i < end:
            t = self.text(i)
            if t == ";" or t == "}":
                i += 1
                continue
            if t == "namespace":
                i = self.parse_namespace(i, ns, cls)
                continue
            if t == "enum":
                i = self.skip_enum(i)
                continue
            if t in ("class", "struct") and self.is_class_def(i):
                i = self.parse_class(i, ns, cls)
                continue
            if t == "using":
                i = self.parse_using(i)
                continue
            if t == "typedef":
                i = self.parse_typedef(i)
                continue
            if t == "template":
                # Skip the parameter list; the templated entity follows.
                j = i + 1
                if self.text(j) == "<":
                    j = self.skip_angles(j)
                i = j
                continue
            if t in ("public", "private", "protected") and \
                    self.text(i + 1) == ":":
                i += 2
                continue
            if t in ("extern",) and self.text(i + 1).startswith('"'):
                i += 2
                continue
            if t.isupper() and self.text(i + 1) == "(":
                # Declaration-level macro expansion (the counter
                # table's HADES_COUNTERS(...)): no ';' of its own.
                i = self.match_forward(i + 1, "(", ")")
                continue
            i = self.parse_declaration(i, end, ns, cls)
        return i

    def parse_namespace(self, i, ns, cls):
        j = i + 1
        name_parts = []
        while self.text(j) not in ("{", ";") and j < self.n:
            if self.tk(j).kind == "id":
                name_parts.append(self.text(j))
            j += 1
        if self.text(j) != "{":
            return j + 1
        close = self.match_forward(j, "{", "}")
        self.parse_scope(j + 1, close - 1, ns + name_parts, cls)
        return close

    def skip_enum(self, i):
        """Skip an enum declaration: no rule reads enumerators (the
        compiler checks switch totality)."""
        j = i + 1
        while self.text(j) not in ("{", ";") and j < self.n:
            j += 1
        if self.text(j) != "{":
            return j + 1  # forward declaration
        return self.skip_statement(self.match_forward(j, "{", "}"))

    def is_class_def(self, i):
        """class/struct NAME [final] [: bases] { -- not a variable of
        elaborated type, not a forward declaration."""
        j = i + 1
        while self.text(j) == "alignas":
            j = self.match_forward(j + 1, "(", ")")
        if self.tk(j) is None or self.tk(j).kind != "id":
            return False
        j += 1
        if self.text(j) == "final":
            j += 1
        if self.text(j) == "{":
            return True
        if self.text(j) == ":":
            return True
        return False

    def parse_class(self, i, ns, cls):
        j = i + 1
        name = self.text(j)
        line = self.tk(j).line
        j += 1
        if self.text(j) == "final":
            j += 1
        bases = []
        if self.text(j) == ":":
            while self.text(j) != "{" and j < self.n:
                if self.tk(j).kind == "id" and self.text(j) not in (
                        "public", "private", "protected", "virtual"):
                    # collect id chain
                    chain = [self.text(j)]
                    k = j + 1
                    while self.text(k) == "::":
                        chain.append(self.text(k + 1))
                        k += 2
                    bases.append("::".join(chain))
                    j = k
                    if self.text(j) == "<":
                        j = self.skip_angles(j)
                    continue
                j += 1
        if self.text(j) != "{":
            return self.skip_statement(j)
        qual = "::".join(ns + ([cls.name.split("::")[-1]] if cls else [])
                         + [name]) if not cls else cls.name + "::" + name
        if cls is None:
            qual = "::".join(ns + [name])
        info = ClassInfo(name=qual, file=self.path, line=line, bases=bases)
        self.ir.classes.append(info)
        close = self.match_forward(j, "{", "}")
        self.parse_scope(j + 1, close - 1, ns, info)
        return self.skip_statement(close)

    def parse_using(self, i):
        # using NAME = TYPE;   |   using namespace X;   |   using X::y;
        j = i + 1
        if self.text(j) == "namespace":
            return self.skip_statement(j)
        if self.tk(j) is not None and self.tk(j).kind == "id" and \
                self.text(j + 1) == "=":
            name = self.text(j)
            line = self.tk(j).line
            k = j + 2
            start = k
            while self.text(k) != ";" and k < self.n:
                k += 1
            self.ir.aliases.append(Alias(
                name=name, target=spell(self.toks[start:k]),
                file=self.path, line=line))
            return k + 1
        return self.skip_statement(j)

    def parse_typedef(self, i):
        j = self.skip_statement(i)
        # typedef TYPE NAME; -- name is the last id before ';'
        k = j - 2
        if self.tk(k) is not None and self.tk(k).kind == "id":
            self.ir.aliases.append(Alias(
                name=self.text(k),
                target=spell(self.toks[i + 1:k]),
                file=self.path, line=self.tk(k).line))
        return j

    def skip_statement(self, i):
        """Advance past the next ';' at depth 0 (brace-aware)."""
        depth = 0
        while i < self.n:
            c = self.text(i)
            if c in ("(", "[", "{"):
                depth += 1
            elif c in (")", "]", "}"):
                depth -= 1
                if depth < 0:
                    return i + 1
            elif c == ";" and depth == 0:
                return i + 1
            i += 1
        return self.n

    # --- declarations: functions, fields, variables -----------------------
    def parse_declaration(self, i, end, ns, cls):
        """At a statement start inside a namespace or class: figure out
        whether this is a function definition, a function declaration,
        or a field/variable, and consume it."""
        j = i
        angle = 0
        last_id = None       # (index, text) of most recent id at depth 0
        name_idx = None
        terminator = None
        paren_after_name = None
        while j < end:
            c = self.text(j)
            k = self.tk(j).kind
            if c == "<" and last_id is not None and angle == 0 and \
                    self.looks_like_template(j):
                j = self.skip_angles(j)
                continue
            if c == "(":
                if last_id is not None and last_id[1] not in TYPE_KEYWORDS:
                    name_idx = last_id[0]
                    paren_after_name = j
                    break
                j = self.match_forward(j, "(", ")")
                continue
            if c == "[":
                if last_id is not None:
                    name_idx = last_id[0]
                    terminator = "["
                    break
                j = self.match_forward(j, "[", "]")
                continue
            if c in ("=", "{", ";"):
                if last_id is not None:
                    name_idx = last_id[0]
                terminator = c
                break
            if c == "operator":
                # Operator overloads: skip the whole definition.
                return self.skip_function_like(j)
            if k == "id" and c not in TYPE_KEYWORDS:
                last_id = (j, c)
            if c == "~":
                # Destructor definition/declaration.
                return self.skip_function_like(j)
            j += 1
        if name_idx is None:
            return self.skip_statement(i)

        if paren_after_name is not None:
            return self.parse_function(i, name_idx, paren_after_name,
                                       end, ns, cls)
        # Field or variable declaration.
        name_tok = self.tk(name_idx)
        type_spelling = spell(self.toks[i:name_idx])
        stmt_end = self.skip_statement(name_idx)
        is_static = "static" in {self.text(k) for k in range(i, name_idx)}
        is_const = any(self.text(k) in ("const", "constexpr")
                       for k in range(i, name_idx))
        if cls is not None:
            cls.fields.append(FieldInfo(
                name=name_tok.text, type_spelling=type_spelling,
                cls=cls.name, file=self.path, line=name_tok.line,
                is_static=is_static, is_const=is_const))
        else:
            self.ir.file_vars.append(VarDecl(
                name=name_tok.text, type_spelling=type_spelling,
                file=self.path, line=name_tok.line))
        return stmt_end

    def looks_like_template(self, j):
        """Heuristic: '<' right after an identifier inside a declaration
        is a template argument list if it closes before ';'/'{'."""
        return self.skip_angles(j) != j

    def skip_function_like(self, i):
        """Skip a definition/declaration we do not model (operators,
        destructors): consume to ';' or past a balanced '{...}'."""
        depth = 0
        while i < self.n:
            c = self.text(i)
            if c == "(":
                i = self.match_forward(i, "(", ")")
                continue
            if c == "{":
                return self.match_forward(i, "{", "}")
            if c == ";" and depth == 0:
                return i + 1
            i += 1
        return self.n

    def parse_function(self, start, name_idx, paren_idx, end, ns, cls):
        """A declarator 'NAME (' was found; decide declaration vs
        definition, record the function, and scan its body."""
        name_tok = self.tk(name_idx)
        # Qualified names in out-of-line definitions: A::B::name.
        parts = [name_tok.text]
        k = name_idx - 1
        while self.text(k) == "::" or (
            self.text(k) == ">" and False
        ):
            if self.tk(k - 1) is not None and self.tk(k - 1).kind == "id":
                parts.insert(0, self.text(k - 1))
                k -= 2
            else:
                break
        ret_type = spell(self.toks[start:k + 1]) if k + 1 > start else ""
        close_paren = self.match_forward(paren_idx, "(", ")")
        # After the parameter list: const/noexcept/override/-> T/: init.
        j = close_paren
        while j < self.n and self.text(j) not in ("{", ";", "="):
            if self.text(j) == "(":
                j = self.match_forward(j, "(", ")")
                continue
            j += 1
        if self.text(j) == "=":
            # '= default/delete/0;' -- a declaration.
            if cls is not None:
                cls.methods.append(name_tok.text)
            return self.skip_statement(j)
        if self.text(j) != "{":
            if cls is not None:
                cls.methods.append(name_tok.text)
            return j + 1
        body_close = self.match_forward(j, "{", "}")
        # NOTE: a function body is not followed by ';' -- do not
        # skip_statement past it or the next declaration is swallowed.

        cls_name = cls.name if cls is not None else (
            "::".join(ns + parts[:-1]) if len(parts) > 1 else "")
        qual = (cls_name + "::" + parts[-1]) if cls_name else \
            "::".join(ns + parts)
        fn = FunctionInfo(
            name=qual, cls=cls_name, file=self.path,
            line=name_tok.line,
            end_line=self.tk(body_close - 1).line
            if self.tk(body_close - 1) else name_tok.line,
            is_ctor=bool(parts[-1] == (cls_name.split("::")[-1]
                                       if cls_name else "")),
            return_type=ret_type)
        fn.params = self.parse_params(paren_idx + 1, close_paren - 1, qual)
        fn.is_coro = any(
            self.text(m) in ("co_await", "co_return", "co_yield")
            for m in range(j + 1, body_close - 1))
        self.ir.functions.append(fn)
        if cls is not None:
            cls.methods.append(name_tok.text)
        self.scan_body(j + 1, body_close - 1, fn)
        return body_close

    def parse_params(self, i, end, func_name):
        params = []
        depth = 0
        seg_start = i
        j = i
        while j <= end:
            c = self.text(j) if j < end else ","
            if j < end and c in ("(", "[", "{"):
                depth += 1
            elif j < end and c in (")", "]", "}"):
                depth -= 1
            elif j < end and c == "<" and self.looks_like_template(j):
                j = self.skip_angles(j) - 1
            elif (c == "," and depth == 0) or j == end:
                seg = self.toks[seg_start:j]
                # drop default argument
                for k, t in enumerate(seg):
                    if t.text == "=":
                        seg = seg[:k]
                        break
                if seg and seg[-1].kind == "id" and \
                        seg[-1].text not in TYPE_KEYWORDS and len(seg) > 1:
                    params.append(VarDecl(
                        name=seg[-1].text,
                        type_spelling=spell(seg[:-1]),
                        file=self.path, line=seg[-1].line,
                        func=func_name))
                seg_start = j + 1
            j += 1
        return params

    # --- function bodies --------------------------------------------------
    def scan_body(self, i, end, fn):
        """Extract writes/calls/fors/comparisons/locals from a
        body token range; lambdas recurse into child FunctionInfo."""
        j = i
        stmt_start = True
        while j < end:
            c = self.text(j)
            k = self.tk(j).kind

            if c == "for" and self.text(j + 1) == "(":
                j = self.scan_for(j, end, fn)
                stmt_start = True
                continue
            if c == "[" and self.text(j + 1) == "[":
                # [[attribute]]
                j = self.match_forward(j, "[", "]")
                continue
            if c == "[" and self.is_lambda_intro(j):
                j = self.scan_lambda(j, end, fn)
                stmt_start = False
                continue
            if stmt_start and k == "id" and self.is_local_decl(j, end):
                j = self.scan_local_decl(j, end, fn)
                stmt_start = False
                continue
            if k == "id" and c not in KEYWORDS_NOT_CALLEES and \
                    self.text(j + 1) in (
                        "(", ".", "->", "::", "[", "=", "+=", "-=",
                        "*=", "/=", "%=", "&=", "|=", "^=", "<<=",
                        ">>=", "++", "--",
                    ):
                j2 = self.scan_postfix_chain(j, end, fn, stmt_start)
                stmt_start = False
                j = j2
                continue
            if c in ("++", "--") and self.tk(j + 1) is not None and \
                    self.tk(j + 1).kind == "id":
                # prefix increment of a plain identifier / chain
                chain_end = self.chain_extent(j + 1, end)
                self.record_write(self.toks[j + 1:chain_end], "modify",
                                  fn, self.tk(j).line)
                j = chain_end
                stmt_start = False
                continue
            if c in CMP_OPS:
                self.record_comparison(j, end, fn)
                j += 1
                stmt_start = False
                continue
            if c in (";", "{", "}", ":"):
                stmt_start = True
                j += 1
                continue
            stmt_start = False
            j += 1

    def is_lambda_intro(self, j):
        prev = self.tk(j - 1)
        if prev is None:
            return True
        if prev.kind in ("id", "num", "str"):
            return False
        if prev.text in (")", "]"):
            return False
        return True

    def scan_lambda(self, j, end, fn):
        cap_close = self.match_forward(j, "[", "]")
        k = cap_close
        params_range = None
        if self.text(k) == "(":
            pclose = self.match_forward(k, "(", ")")
            params_range = (k + 1, pclose - 1)
            k = pclose
        while k < end and self.text(k) not in ("{", ";", ")", ","):
            if self.text(k) == "(":
                k = self.match_forward(k, "(", ")")
                continue
            k += 1
        if self.text(k) != "{":
            return cap_close  # not a lambda body (e.g. attribute)
        body_close = self.match_forward(k, "{", "}")
        name = "%s::<lambda:%d>" % (fn.name, self.tk(j).line)
        child = FunctionInfo(
            name=name, cls=fn.cls, file=self.path, line=self.tk(j).line,
            end_line=self.tk(body_close - 1).line,
            is_lambda=True, parent_func=fn.name)
        if params_range:
            child.params = self.parse_params(params_range[0],
                                             params_range[1] + 1, name)
        self.ir.functions.append(child)
        self.scan_body(k + 1, body_close - 1, child)
        return body_close

    def scan_for(self, j, end, fn):
        hdr_close = self.match_forward(j + 1, "(", ")")
        # Ranged-for: a ':' at depth 0 inside the header, no ';'.
        depth = 0
        colon = None
        has_semi = False
        m = j + 2
        while m < hdr_close - 1:
            c = self.text(m)
            if c in ("(", "[", "{"):
                depth += 1
            elif c in (")", "]", "}"):
                depth -= 1
            elif depth == 0:
                if c == ";":
                    has_semi = True
                    break
                if c == ":" and colon is None:
                    colon = m
            m += 1
        if colon is not None and not has_semi:
            fn.ranged_fors.append(RangedFor(
                range_expr=spell(self.toks[colon + 1:hdr_close - 1]),
                file=self.path, line=self.tk(j).line, func=fn.name))
            # The loop variable is a local; record it for resolution.
            decl = self.toks[j + 2:colon]
            if decl and decl[-1].kind == "id":
                fn.locals.append(VarDecl(
                    name=decl[-1].text,
                    type_spelling=spell(decl[:-1]),
                    file=self.path, line=decl[-1].line, func=fn.name))
        else:
            # Classic for: scan the header for writes (i += 1 etc.).
            self.scan_body(j + 2, hdr_close - 1, fn)
        return hdr_close

    def find_decl_name(self, j, end):
        """If [j, end) starts with 'TYPE name', return the token index
        of the declared name, else None. TYPE is an id chain with
        optional ::, template args, cv-qualifiers, and * & declarators.
        """
        k = j
        if self.text(k) in ("return", "delete", "else", "do", "break",
                            "continue", "goto", "case", "default",
                            "throw", "co_return", "co_await", "new"):
            return None
        type_seen = False   # a complete type chain has been read
        prev = None
        while k < end:
            c = self.text(k)
            kind = self.tk(k).kind
            if kind == "id" and c == "auto":
                type_seen = True
                prev = "id"
                k += 1
                continue
            if kind == "id" and c in TYPE_KEYWORDS:
                prev = "kw"
                k += 1
                continue
            if kind == "id" and c in KEYWORDS_NOT_CALLEES:
                return None
            if kind == "id":
                if type_seen and prev in ("id", "ref", "close_angle"):
                    after = self.text(k + 1)
                    if after in ("=", ";", "{", "(", "[", ",", ":"):
                        return k
                    return None
                type_seen = True
                prev = "id"
                k += 1
                continue
            if c == "::":
                prev = "colons"
                k += 1
                continue
            if c == "<" and prev in ("id", "close_angle"):
                nk = self.skip_angles(k)
                if nk == k:
                    return None
                k = nk
                prev = "close_angle"
                continue
            if c in ("*", "&", "&&") and type_seen:
                prev = "ref"
                k += 1
                continue
            return None
        return None

    def is_local_decl(self, j, end):
        return self.find_decl_name(j, end) is not None

    def scan_local_decl(self, j, end, fn):
        """Record 'TYPE name [= init];' locals (auto keeps its init
        spelling so R3X can resolve aliases like 'auto &m = map_;')."""
        stmt_end = j
        depth = 0
        while stmt_end < end:
            c = self.text(stmt_end)
            if c in ("(", "[", "{"):
                depth += 1
            elif c in (")", "]", "}"):
                depth -= 1
            elif c == ";" and depth == 0:
                break
            stmt_end += 1
        # find the declared name
        name_idx = self.find_decl_name(j, stmt_end)
        name_tok = self.tk(name_idx) if name_idx is not None else None
        k = name_idx if name_idx is not None else j
        if name_tok is None:
            # fall through: treat as an expression statement
            self.scan_expression_stmt(j, stmt_end, fn)
            return stmt_end
        type_spelling = spell(self.toks[j:k])
        init = ""
        for m in range(k, stmt_end):
            if self.text(m) == "=":
                init = spell(self.toks[m + 1:stmt_end])
                break
        if "auto" in type_spelling.split() or type_spelling == "auto" or \
                type_spelling.startswith("auto"):
            type_spelling = "auto=" + init if init else "auto"
        fn.locals.append(VarDecl(
            name=name_tok.text, type_spelling=type_spelling, init=init,
            file=self.path, line=name_tok.line, func=fn.name))
        # The initializer may contain calls/lambdas/writes: scan it.
        self.scan_body(k + 1, stmt_end, fn)
        return stmt_end

    def scan_expression_stmt(self, j, stmt_end, fn):
        self.scan_body(j, stmt_end, fn)

    def chain_extent(self, j, end):
        """Extent of a postfix chain starting at id @p j:
        id (::id)* ( '.' id | '->' id | '[' ... ']' | '(' ... ')' )*"""
        k = j + 1
        while k < end:
            c = self.text(k)
            if c == "::" and self.tk(k + 1) is not None and \
                    self.tk(k + 1).kind == "id":
                k += 2
                continue
            if c in (".", "->") and self.tk(k + 1) is not None and \
                    self.tk(k + 1).kind == "id":
                k += 2
                continue
            if c == "[":
                k = self.match_forward(k, "[", "]")
                continue
            if c == "(":
                k = self.match_forward(k, "(", ")")
                continue
            break
        return k

    def scan_postfix_chain(self, j, end, fn, stmt_start):
        """At an identifier that begins a postfix chain: record calls,
        member mutations, assignments, and recurse into call args."""
        chain_end = self.chain_extent(j, end)
        chain = self.toks[j:chain_end]
        line = self.tk(j).line
        after = self.text(chain_end)

        # Record calls inside the chain (each '(' group).
        self.record_chain_calls(j, chain_end, fn)

        if after in ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
                     "^=", "<<=", ">>="):
            if after == "=" and self.text(chain_end + 1) == "=":
                pass  # '==' split weirdly; lexer emits '==' whole
            else:
                self.record_write(
                    chain, "assign" if after == "=" else "modify",
                    fn, line)
                return chain_end + 1
        if after in ("++", "--"):
            self.record_write(chain, "modify", fn, line)
            return chain_end + 1
        return chain_end

    def record_chain_calls(self, j, chain_end, fn):
        """Within a postfix chain, emit CallSite for every call group
        and WriteSite for mutating member calls; recurse into args."""
        k = j
        seg_start = j
        last_member_start = j
        while k < chain_end:
            c = self.text(k)
            if c == "(":
                close = self.match_forward(k, "(", ")")
                callee_toks = self.toks[seg_start:k]
                callee = spell(callee_toks)
                args = self.split_args(k + 1, close - 1)
                fn.calls.append(CallSite(
                    callee=callee, args=args, file=self.path,
                    line=self.tk(k).line, func=fn.name))
                # Mutating member call => a write to the receiver.
                member = callee_toks[-1].text if callee_toks else ""
                if member in MUTATORS and len(callee_toks) >= 3:
                    recv = callee_toks[:-2]  # drop '.member'
                    self.record_write(recv, "call", fn,
                                      self.tk(k).line, via=member)
                # Scan arguments for nested chains/lambdas/writes.
                self.scan_body(k + 1, close - 1, fn)
                k = close
                continue
            if c == "[":
                k = self.match_forward(k, "[", "]")
                continue
            if c in (".", "->"):
                last_member_start = k + 1
                k += 1
                continue
            k += 1
        return chain_end

    def split_args(self, i, end):
        args = []
        depth = 0
        seg = i
        j = i
        while j <= end:
            c = self.text(j) if j < end else ","
            if j < end and c in ("(", "[", "{"):
                depth += 1
            elif j < end and c in (")", "]", "}"):
                depth -= 1
            elif (c == "," and depth == 0) or j == end:
                if j > seg:
                    args.append(spell(self.toks[seg:j]))
                seg = j + 1
            j += 1
        return args

    def record_write(self, chain_toks, kind, fn, line, via=""):
        if not chain_toks:
            return
        # Field = last id in the chain before any trailing call/index.
        field_name = None
        idx_expr = ""
        k = len(chain_toks) - 1
        while k >= 0:
            t = chain_toks[k]
            if t.kind == "id":
                field_name = t.text
                break
            if t.text == "]":
                # capture the subscript expression
                depth = 0
                m = k
                while m >= 0:
                    if chain_toks[m].text == "]":
                        depth += 1
                    elif chain_toks[m].text == "[":
                        depth -= 1
                        if depth == 0:
                            break
                    m -= 1
                idx_expr = spell(chain_toks[m + 1:k]) or idx_expr
                k = m - 1
                continue
            if t.text == ")":
                depth = 0
                m = k
                while m >= 0:
                    if chain_toks[m].text == ")":
                        depth += 1
                    elif chain_toks[m].text == "(":
                        depth -= 1
                        if depth == 0:
                            break
                    m -= 1
                k = m - 1
                continue
            k -= 1
        if field_name is None:
            return
        # Distinguish locals from fields: single-component plain ids
        # that match a local/param are not field writes.
        names_in_chain = [t.text for t in chain_toks if t.kind == "id"]
        if names_in_chain and names_in_chain[0] == field_name:
            local_names = {v.name for v in fn.locals} | \
                {p.name for p in fn.params}
            if field_name in local_names and len(names_in_chain) == 1:
                return
        cls = fn.cls if len(names_in_chain) == 1 else ""
        if names_in_chain and names_in_chain[0] == "this":
            cls = fn.cls
        fn.writes.append(WriteSite(
            field=field_name, cls=cls, expr=spell(chain_toks),
            kind=kind, index_expr=idx_expr, via_method=via,
            file=self.path, line=line, func=fn.name))

    def record_comparison(self, j, end, fn):
        # lhs: walk backwards over a postfix chain; rhs: forward.
        lhs_start = j - 1
        depth = 0
        while lhs_start >= 0:
            c = self.text(lhs_start)
            if c in (")", "]"):
                depth += 1
            elif c in ("(", "["):
                depth -= 1
                if depth < 0:
                    break
            elif depth == 0 and self.tk(lhs_start).kind not in \
                    ("id", "num") and c not in ("::", ".", "->"):
                break
            lhs_start -= 1
        lhs = spell(self.toks[lhs_start + 1:j])
        rhs_end = self.chain_extent(j + 1, end) \
            if self.tk(j + 1) is not None and \
            self.tk(j + 1).kind == "id" else j + 2
        rhs = spell(self.toks[j + 1:min(rhs_end, end)])
        if lhs or rhs:
            fn.comparisons.append(Comparison(
                lhs=lhs, rhs=rhs, file=self.path,
                line=self.tk(j).line, func=fn.name))


def parse_file(path, rel, text=None):
    if text is None:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    return Parser(rel, text).parse()
