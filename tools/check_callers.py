#!/usr/bin/env python3
"""Caller check: src/ holds only code that a solver, bench or binary runs.

Every function name declared in a src/**/*.hpp header must be used in the
C++ sources under src/, bench/, examples/ or stepbench/ somewhere other than
at its declarations and its definition. Tests do not count as users: a
function only tests call is either deleted or moved into tests/ as a
reference. Run by tools/check_docs.sh (and so by `tools/ci.sh docs`).

How it reads the sources:
  * comments, string and character literals are blanked first, so a name
    in a comment or a message is not a use;
  * declarations are harvested at namespace and class scope only (function
    bodies and initializers are skipped): a statement whose first
    parenthesis, at template-bracket depth 0 and before any `=`, follows an
    identifier that itself follows a return type. Constructors, destructors,
    operators and macro invocations are not harvested;
  * in a .cpp file, a line starting in column 0 is a definition of the one
    name it defines (the first identifier followed by `(`); every other
    identifier on that line is a use;
  * a use is any other occurrence of the name in call context: `name(`,
    `name<...>(`, `&name` or `&Class::name`. A variable, parameter or field
    of the same name is not a use. The check is by name, so a call of one
    class's function keeps another class's function of the same name
    alive.

Fails when extraction breaks (fewer than MIN_HARVEST declared names), when a
declared name has no use, or when an allow-list entry is stale.

Usage: tools/check_callers.py [repo-root]
"""

import os
import re
import sys

MIN_HARVEST = 300

# Declared functions that no src/, bench/, examples/ or stepbench/ code
# calls and that stay anyway. Each needs a reason.
ALLOW = {
    "core::Simulation::add_fallback_solver":
        "test hook: the fallback-ladder tests install failing solvers with it",
    "core::Simulation::active_tier":
        "observes the ladder tier a checkpoint restores",
    "simt::test_device":
        "the small device the SIMT model tests run on",
    "core::SimulationFleet::cancel":
        "fleet API: writes the journal's documented `cancel` record",
    "core::SimulationFleet::quarantined":
        "fleet API: reports which jobs the supervisor quarantined",
    "core::SimulationFleet::job_count":
        "fleet API: the number of submitted jobs",
}

USER_DIRS = ("src", "bench", "examples", "stepbench")
CXX_EXT = (".cpp", ".hpp", ".h", ".cc")

KEYWORDS = {
    "alignas", "alignof", "auto", "bool", "case", "catch", "char", "co_await",
    "co_return", "co_yield", "const", "constexpr", "consteval", "constinit",
    "decltype", "default", "delete", "do", "double", "else", "explicit",
    "extern", "float", "for", "friend", "goto", "if", "inline", "int", "long",
    "mutable", "new", "noexcept", "operator", "override", "final", "register",
    "requires", "return", "short", "signed", "sizeof", "static",
    "static_assert", "switch", "template", "throw", "typedef", "typename",
    "unsigned", "using", "virtual", "void", "volatile", "while", "nodiscard",
}
# Words that may precede a function name without being its return type.
SPECIFIERS = {"static", "inline", "constexpr", "consteval", "virtual",
              "explicit", "friend", "extern", "typename", "template"}
SCOPE_WORDS = re.compile(r"\b(namespace|class|struct|union|enum)\b")
IDENT = re.compile(r"[A-Za-z_]\w*")


def strip(text):
    """Blanks comments, string and character literals, keeping newlines and
    columns, so offsets and line starts stay where they were."""
    out = list(text)
    i, n = 0, len(text)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            blank(i, j)
            i = j
        elif c == "R" and text.startswith('R"', i) and \
                (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if not m:
                i += 1
                continue
            end = text.find(")" + m.group(1) + '"', i)
            j = n if end < 0 else end + len(m.group(1)) + 2
            blank(i, j)
            i = j
        elif c == '"' or (c == "'" and not (i > 0 and text[i - 1].isalnum())):
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            blank(i, j)
            i = j
        else:
            i += 1
    return "".join(out)


def strip_preprocessor(text, directive=""):
    """Blanks the preprocessor lines (with continuations) that start with
    `#directive`."""
    lines = text.split("\n")
    cont = False
    for k, line in enumerate(lines):
        if cont or re.match(r"\s*#\s*" + directive, line):
            cont = line.endswith("\\")
            lines[k] = " " * len(line)
    return "\n".join(lines)


def match_close(text, i, open_ch, close_ch):
    """Index just past the bracket matching text[i] == open_ch."""
    depth = 0
    n = len(text)
    while i < n:
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def declared_name(head):
    """The function name a declaration head (text up to its first `(`)
    declares, with its offset in head, or None."""
    head = re.sub(r"\[\[.*?\]\]", lambda m: " " * len(m.group()), head)
    m = re.search(r"(~?)((?:[A-Za-z_]\w*\s*::\s*)*)([A-Za-z_]\w*)\s*$", head)
    if not m or m.group(1):
        return None
    name = m.group(3)
    if name in KEYWORDS or name.startswith("operator"):
        return None
    before = head[:m.start()]
    # Template argument lists in the return type are part of it.
    before = re.sub(r"<[^;{}]*>", " T ", before)
    words = [w for w in IDENT.findall(before) if w not in SPECIFIERS]
    if "operator" in before or not words:
        return None  # constructor, macro invocation or operator
    return name, m.start(3)


def harvest(text):
    """[(qualified name, bare name, offset)] of the functions a header
    declares at namespace and class scope."""
    found = []
    # Names of the enclosing namespaces and classes. Every other brace
    # (bodies, initializers, enums) is skipped whole, so a `}` seen here
    # always closes one of these.
    scopes = []
    i, n = 0, len(text)
    start = 0    # start of the current statement
    while i < n:
        c = text[i]
        if c == "}":
            if scopes:
                scopes.pop()
            i += 1
            start = i
        elif c == ";":
            i += 1
            start = i
        elif c == ":" and re.fullmatch(
                r"\s*(public|private|protected)\s*", text[start:i]):
            i += 1
            start = i
        elif c == "{":
            head = text[start:i]
            kw = SCOPE_WORDS.search(head)
            if kw and "(" not in head and "=" not in head and \
                    kw.group(1) != "enum":
                name = re.match(r"\s*((?:\w+::)*\w+)?",
                                head[kw.end():]).group(1) or ""
                scopes.append(name)
                i += 1
            else:
                i = match_close(text, i, "{", "}")  # body or initializer
            start = i
        elif c == "(":
            head = text[start:i]
            angle = head.count("<") - head.count(">")
            if "=" not in head and angle <= 0 and "operator" not in head:
                decl = declared_name(head)
                if decl:
                    bare, off = decl
                    qual = re.search(r"((?:\w+\s*::\s*)*)\w+\s*$", head)
                    parts = [p for s in scopes for p in s.split("::")
                             if p and p != "bd"]
                    if qual and qual.group(1):
                        parts += [p.strip() for p in
                                  qual.group(1).split("::") if p.strip()]
                    found.append(("::".join(parts + [bare]), bare,
                                  start + off))
            # Skip the parameter list (and so any default-argument braces).
            i = match_close(text, i, "(", ")")
            # A trailing `-> T`, `const`, `= 0;` or `{ body }` ends the
            # statement; from here on a `(` belongs to no declarator.
            while i < n and text[i] not in ";{}":
                if text[i] == "(":
                    i = match_close(text, i, "(", ")")
                else:
                    i += 1
            if i < n and text[i] == "{":
                i = match_close(text, i, "{", "}")
                start = i
        else:
            i += 1
    return found


def definition_sites(text):
    """Offsets of the one name each column-0 line of a .cpp defines: its
    first identifier followed by `(`, unless an `=` precedes it (then the
    line initializes a variable and the call is a use)."""
    sites = []
    offset = 0
    for line in text.split("\n"):
        if line[:1].isalpha() or line[:1] == "_":
            m = re.search(r"([A-Za-z_]\w*)\s*\(", line)
            if m and "=" not in line[:m.start()] and \
                    not SCOPE_WORDS.match(line):
                sites.append(offset + m.start(1))
        offset += len(line) + 1
    return sites


# After an identifier: optional template arguments, then `(`.
CALL_AFTER = re.compile(r"\s*(?:<[^;{}()]*>\s*)?\(")
# Before an identifier: `&` right before optional `Class::` qualifiers. A
# `&&` is a logical and, and `T& name` declares a reference; neither is a
# use.
ADDRESS_BEFORE = re.compile(r"(?<![&\w])&(?:[A-Za-z_]\w*\s*::\s*)*$")


def is_call(text, start, end):
    """Whether the identifier text[start:end] is called or has its address
    taken."""
    if CALL_AFTER.match(text, end):
        return True
    line_start = text.rfind("\n", 0, start) + 1
    return ADDRESS_BEFORE.search(text, line_start, start) is not None


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else \
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    files = {}
    for d in USER_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, d)):
            for name in sorted(names):
                if name.endswith(CXX_EXT):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        files[os.path.relpath(path, root)] = \
                            strip_preprocessor(strip(fh.read()), "include")

    declared = {}   # bare name -> [qualified names]
    excluded = set()  # (file, offset) of declarations and definitions
    for path, text in files.items():
        if path.startswith("src" + os.sep) and path.endswith(".hpp"):
            # A macro body is a use, never a declaration.
            for qual, bare, off in harvest(strip_preprocessor(text)):
                declared.setdefault(bare, []).append(qual)
                excluded.add((path, off))
        if path.endswith(".cpp"):
            for off in definition_sites(text):
                excluded.add((path, off))

    used = set()
    for path, text in files.items():
        for m in IDENT.finditer(text):
            if m.group() in declared and (path, m.start()) not in excluded \
                    and is_call(text, m.start(), m.end()):
                used.add(m.group())

    fail = False
    if len(declared) < MIN_HARVEST:
        print(f"check_callers: only {len(declared)} function names harvested "
              f"from src/ headers (want >= {MIN_HARVEST}) - extraction broken?",
              file=sys.stderr)
        fail = True
    quals = {q for qs in declared.values() for q in qs}
    for bare in sorted(declared):
        if bare in used:
            continue
        for qual in sorted(set(declared[bare])):
            if qual not in ALLOW:
                print(f"check_callers: {qual} is declared in a src/ header "
                      "but nothing in src/, bench/, examples/ or stepbench/ "
                      "calls it", file=sys.stderr)
                fail = True
    for qual in sorted(ALLOW):
        bare = qual.rsplit("::", 1)[-1]
        if qual not in quals:
            print(f"check_callers: allow-listed {qual} is no longer declared",
                  file=sys.stderr)
            fail = True
        elif bare in used:
            print(f"check_callers: allow-listed {qual} now has a caller; "
                  "drop it from the allow-list", file=sys.stderr)
            fail = True
    if fail:
        print("check_callers: FAILED", file=sys.stderr)
        return 1
    print(f"check_callers: OK ({len(declared)} declared function names, "
          f"{len(ALLOW)} allow-listed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
