"""Semantic IR that parse_fallback produces and the rules query.

The IR is deliberately *spelling-oriented*: rules match on qualified
names and expression spellings, not on resolved types. Every entity
carries its file and line for reporting and suppression lookup.
"""

from dataclasses import dataclass, field


@dataclass
class FieldInfo:
    name: str               # e.g. 'msgCount_'
    type_spelling: str      # normalized, e.g. 'std::uint64_t'
    cls: str = ""           # owning class qualified name
    file: str = ""
    line: int = 0
    is_static: bool = False
    is_const: bool = False


@dataclass
class VarDecl:
    """A non-member declaration visible to name resolution: local,
    parameter, or file-scope variable."""
    name: str
    type_spelling: str
    init: str = ""          # initializer spelling, when recorded
    file: str = ""
    line: int = 0
    func: str = ""          # enclosing function ('' = file scope)


@dataclass
class WriteSite:
    """A mutation of a class field: assignment, compound assignment,
    increment/decrement, or a mutating-method call (push_back, insert,
    erase, clear, operator[] on a container, ...)."""
    field: str              # field name as spelled
    cls: str                # owning class if known, else ''
    expr: str               # full LHS spelling, e.g. 'statsByNode_[n]'
    kind: str               # 'assign' | 'modify' | 'call'
    index_expr: str = ""    # subscript spelling if the LHS subscripts
    via_method: str = ""    # mutating method name for kind == 'call'
    file: str = ""
    line: int = 0
    func: str = ""          # enclosing function qualified name


@dataclass
class CallSite:
    callee: str             # spelling, e.g. 'sys_.network.post'
    args: list = field(default_factory=list)  # argument spellings
    file: str = ""
    line: int = 0
    func: str = ""


@dataclass
class RangedFor:
    range_expr: str         # spelling of the range expression
    file: str = ""
    line: int = 0
    func: str = ""


@dataclass
class Comparison:
    """A relational/equality expression; A3 looks for epoch guards."""
    lhs: str
    rhs: str
    file: str = ""
    line: int = 0
    func: str = ""


@dataclass
class FunctionInfo:
    name: str               # qualified, e.g. 'hades::net::Network::post'
    cls: str = ""           # owning class qualified name ('' = free)
    file: str = ""
    line: int = 0
    end_line: int = 0
    is_ctor: bool = False
    is_lambda: bool = False
    is_coro: bool = False   # coroutine: body resumes in event context
    parent_func: str = ""   # enclosing function for lambdas
    return_type: str = ""
    params: list = field(default_factory=list)      # VarDecl
    writes: list = field(default_factory=list)      # WriteSite
    calls: list = field(default_factory=list)       # CallSite
    ranged_fors: list = field(default_factory=list) # RangedFor
    comparisons: list = field(default_factory=list) # Comparison
    locals: list = field(default_factory=list)      # VarDecl


@dataclass
class ClassInfo:
    name: str               # qualified, e.g. 'hades::net::Network'
    file: str = ""
    line: int = 0
    fields: list = field(default_factory=list)      # FieldInfo
    methods: list = field(default_factory=list)     # method names
    bases: list = field(default_factory=list)


@dataclass
class Alias:
    """'using X = T;' or 'typedef T X;'"""
    name: str
    target: str
    file: str = ""
    line: int = 0


@dataclass
class FileIR:
    path: str               # repo-relative, posix
    classes: list = field(default_factory=list)
    functions: list = field(default_factory=list)
    aliases: list = field(default_factory=list)
    file_vars: list = field(default_factory=list)   # VarDecl
    comments: dict = field(default_factory=dict)    # line -> text


class Index:
    """Cross-file symbol index the rules query."""

    def __init__(self, files):
        self.files = files  # list[FileIR]
        self.classes = {}   # short and qualified name -> ClassInfo
        self.fields_by_name = {}  # field name -> [FieldInfo]
        self.aliases = {}   # alias name -> target spelling
        self.functions = [] # all FunctionInfo
        self.func_by_name = {}    # qualified name -> [FunctionInfo]
        self.comments = {}  # (path, line) -> comment text
        for f in files:
            for c in f.classes:
                self.classes[c.name] = c
                self.classes.setdefault(c.name.split("::")[-1], c)
                for fld in c.fields:
                    self.fields_by_name.setdefault(fld.name, []).append(fld)
            for a in f.aliases:
                self.aliases.setdefault(a.name, a.target)
            for fn in f.functions:
                self.functions.append(fn)
                self.func_by_name.setdefault(fn.name, []).append(fn)
                short = fn.name.split("::")[-1]
                self.func_by_name.setdefault(short, []).append(fn)
            for line, text in f.comments.items():
                self.comments[(f.path, line)] = text

    def comment_at(self, path, line):
        return self.comments.get((path, line), "")

    def resolve_alias(self, spelling, depth=0):
        """Follow 'using' aliases a few levels deep."""
        if depth > 4:
            return spelling
        base = spelling.split("<")[0].strip().split("::")[-1]
        if base in self.aliases:
            return self.resolve_alias(self.aliases[base], depth + 1)
        return spelling


@dataclass
class Finding:
    rule: str               # 'lane-escape', 'verb-reliability', ...
    file: str
    line: int
    message: str
    detail: str = ""

    def key(self):
        return (self.rule, self.file, self.line, self.message)
