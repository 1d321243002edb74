"""C++ tokenizer for the structural parser (parse_fallback).

Produces a flat token stream with line numbers, plus the per-line
comment text (needed for suppression markers). This is not a general
C++ lexer -- it handles exactly what a well-formatted C++20 codebase
needs: line/block comments, string/char literals (including raw
strings), identifiers, numbers, and multi-character punctuation.
"""

from dataclasses import dataclass

PUNCT3 = ("<<=", ">>=", "...", "->*", "<=>")
PUNCT2 = (
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&",
    "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
)


@dataclass
class Tok:
    kind: str  # 'id', 'num', 'str', 'chr', 'punct'
    text: str
    line: int


def lex(text):
    """Tokenize @p text; returns (tokens, comments) where comments maps
    line -> concatenated comment text on that line."""
    toks = []
    comments = {}
    i = 0
    n = len(text)
    line = 1

    def note_comment(ln, s):
        comments[ln] = comments.get(ln, "") + s

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "/":
                j = text.find("\n", i)
                if j < 0:
                    j = n
                note_comment(line, text[i:j])
                i = j
                continue
            if nxt == "*":
                j = text.find("*/", i + 2)
                if j < 0:
                    j = n
                else:
                    j += 2
                chunk = text[i:j]
                note_comment(line, chunk)
                line += chunk.count("\n")
                i = j
                continue
        if c == '"' or (
            c == "R" and i + 1 < n and text[i + 1] == '"'
        ):
            if c == "R":
                # Raw string: R"delim( ... )delim"
                k = text.find("(", i + 2)
                delim = text[i + 2 : k]
                end = text.find(")" + delim + '"', k)
                if end < 0:
                    end = n
                else:
                    end += len(delim) + 2
                chunk = text[i:end]
                toks.append(Tok("str", chunk, line))
                line += chunk.count("\n")
                i = end
                continue
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == '"':
                    break
                if text[j] == "\n":
                    break  # unterminated; be forgiving
                j += 1
            toks.append(Tok("str", text[i : j + 1], line))
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == "'":
                    break
                if text[j] == "\n":
                    break
                j += 1
            # Digit separators (1'000) never reach here: the number
            # lexer below consumes them inside the 'num' token.
            toks.append(Tok("chr", text[i : j + 1], line))
            i = j + 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (
                text[j].isalnum()
                or text[j] in "._'"
                or (
                    text[j] in "+-"
                    and text[j - 1] in "eEpP"
                )
            ):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        if c == "#":
            # Preprocessor line (with continuations): skip entirely.
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    k = n
                if k > j and text[k - 1] == "\\":
                    line += 1
                    j = k + 1
                    continue
                break
            line += text.count("\n", i, k)
            i = k
            continue
        three = text[i : i + 3]
        if three in PUNCT3:
            toks.append(Tok("punct", three, line))
            i += 3
            continue
        two = text[i : i + 2]
        if two in PUNCT2:
            toks.append(Tok("punct", two, line))
            i += 2
            continue
        toks.append(Tok("punct", c, line))
        i += 1
    return toks, comments
