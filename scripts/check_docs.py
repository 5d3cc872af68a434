#!/usr/bin/env python3
"""Checks that documentation references point at things that exist.

Scans the backtick-quoted tokens in README.md and docs/*.md (including
docs/architecture.md, whose module map names every src/ directory) and
fails (exit 1) when one references:

  - a missing file or directory (tokens starting with src/, tests/,
    bench/, docs/, examples/, scripts/; brace groups like repager.{h,cc}
    are expanded),
  - an unknown bench binary (`bench_*` must have bench/<name>.cpp),
  - an unknown test binary (`rpg_<dir>_test` must have tests/<dir>/),
  - an unknown CMake target in a `./build/<name>` invocation (the target
    set is derived from bench/*.cpp and examples/*.cpp stems, tests/
    directories, and the static targets `rpg` / `docs_check`),
  - a wrong bound for a gated metric: wherever a doc (or the module
    docstring of scripts/check_bench_regression.py) quotes a bound for a
    metric in that script's *_LIMITS tables — `overhead_ratio <= 1.05`,
    `attributed_fraction >= 0.9`, or "gated ≤ N" after the metric's
    name in the same paragraph — the number must equal the table's,
  - a member that does not exist: in a `Type::member` token (namespace
    prefixes and a trailing argument list allowed), where Type is a
    struct or class defined under src/, the member must be declared in
    that definition or one of its bases — so docs cannot go on naming a
    deleted option field,
  - a name that is not declared: in an `ns::Name` token whose leading
    components are namespaces declared under src/ (`rpg::`, `graph::`,
    `rpg::text::`, ...), Name must be declared under src/ as a class,
    struct, enum, alias, function or namespace — so docs cannot go on
    naming a deleted class,
  - a bare CamelCase name that is not declared: a token like
    `RenderResult` or `JoinOrClaim()` (two or more capitalised words,
    an optional argument list) must be declared as a class, struct,
    enum, alias, function or namespace, or be a gtest suite or case
    name, somewhere under src/, tests/, bench/, perfbench/, examples/
    or fuzz/ — so docs cannot go on naming a deleted function.

It also fails when the first column of docs/observability.md's "Span
taxonomy" table is not exactly the set of names `StageName` returns in
src/obs/trace.cc — so the docs cannot go on listing a deleted span or
leave a new one out.

It also fails when the environment rows of docs/observability.md's
"Switches" table (first cell "`RPG_...` (environment)") are not exactly
the `RPG_*` names that src/ reads with `std::getenv` — so the docs
cannot go on offering a switch the code no longer reads, or leave out
one it does.

It also fails when a comment in a src/ .h or .cc file names a *.md
file that exists neither relative to the repository root nor relative
to that source file's directory — so code cannot go on citing a
design document that is not in the tree — and when a comment in a
src/, bench/ or tests/ C++ file mentions ROADMAP: the roadmap is
rewritten as work lands, so its sections and item numbers do not stay
put, and a comment must carry its own reason.

Before scanning, built-in fixtures check that the bound check catches a
doc quoting 1.02 against a 1.05 tracing limit, that the member check
catches a made-up field of a fixture struct, that the name check
catches `text::TfIdf` against a fixture that declares only
`text::TfIdfModel`, that the bare-name check catches
`EstimateResultBytes` against a fixture that declares only
`RenderResult`, that the span check catches a table naming a `rank`
stage that the fixture's `StageName` lacks, that the switch check
catches a table keeping a removed `RPG_LOG_LEVEL` row and one missing
`RPG_TRACING`, that the comment check
catches a header citing DESIGN.md, and that the roadmap check catches
a comment citing a ROADMAP item.

Wired into the tier-1 flow as the `docs_check` ctest and the
`docs_check` build target, so docs rot is caught the same way a failing
unit test is.

Run from the repository root: python3 scripts/check_docs.py
"""

import importlib.util
import itertools
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = ["README.md"] + sorted(
    str(p.relative_to(ROOT)) for p in (ROOT / "docs").glob("*.md")
)

# Backticked tokens that look like repo paths must exist on disk.
PATH_PREFIXES = ("src/", "tests/", "bench/", "docs/", "examples/", "scripts/")
PATH_RE = re.compile(r"^[A-Za-z0-9_.{},/-]+$")


def known_cmake_targets():
    """Every binary/library target the top-level CMakeLists generates."""
    targets = {"rpg", "docs_check"}
    for src in (ROOT / "bench").glob("*.cpp"):
        targets.add(src.stem)
    for src in (ROOT / "examples").glob("*.cpp"):
        targets.add(src.stem)
    for test_dir in (ROOT / "tests").iterdir():
        if test_dir.is_dir():
            targets.add(f"rpg_{test_dir.name}_test")
    return targets


TARGETS = known_cmake_targets()

# C++ comments and string/char literals (raw strings included), blanked
# before looking for declarations; digit separators are removed first.
CPP_NOISE_RE = re.compile(
    r'R"(?P<delim>[^(\s]*)\(.*?\)(?P=delim)"|//[^\n]*|/\*.*?\*/'
    r'|"(?:\\.|[^"\\\n])*"|' r"'(?:\\.|[^'\\\n])*'", re.S)
DIGIT_SEP_RE = re.compile(r"(?<=[0-9A-Fa-f])'(?=[0-9A-Fa-f])")
# `struct Name {`, `class A::Name final : public Base<T> {`, `enum class E {`.
DECL_RE = re.compile(
    r"\b(?:struct|class)\s+(?:\w+::)*(?P<name>\w+)\s*(?:final\s*)?"
    r"(?::(?!:)(?P<bases>[^;{}]*))?\{")
# A name being declared: followed by a parameter list, initializer,
# terminator, body, array bound, or enumerator separator.
DECLARED_RE = re.compile(r"(~?[A-Za-z_]\w*)\s*(?=[(=;{\[,}])")
SCOPED_RE = re.compile(
    r"(?:\w+::)*(?P<type>\w+)::(?P<member>~?[A-Za-z_]\w*)(?:\(.*\))?")


def declared_members(sources):
    """{type name: (declared names, base names)} over every struct/class
    definition in `sources` (C++ texts). Same-named types merge."""
    types = {}
    for text in sources:
        text = CPP_NOISE_RE.sub(" ", DIGIT_SEP_RE.sub("", text))
        for m in DECL_RE.finditer(text):
            # The body at its own nesting level: inline function bodies
            # and nested types are blanked (nested types get their own
            # entry).
            depth, body = 0, []
            for c in text[m.end() - 1:]:
                depth -= c == "}"
                if depth == 0 and c == "}":
                    break
                body.append(c if depth <= 1 else " ")
                depth += c == "{"
            names, bases = types.setdefault(m.group("name"), (set(), set()))
            names.update(DECLARED_RE.findall("".join(body)))
            bases.update(re.findall(r"(\w+)\s*(?:<[^,]*>)?\s*(?:,|$)",
                                    (m.group("bases") or "").strip()))
    return types


def check_member(token, types):
    """Problems for a `Type::member` token whose Type is a struct or class
    in `types` that, bases included, declares no such member."""
    m = SCOPED_RE.fullmatch(token)
    if not m or m.group("type") not in types:
        return []
    seen, pending = set(), [m.group("type")]
    while pending:
        name = pending.pop()
        if name in seen or name not in types:
            continue
        seen.add(name)
        names, bases = types[name]
        if m.group("member") in names:
            return []
        pending.extend(bases)
    return [f"`{token}`: {m.group('type')} declares no member "
            f"{m.group('member')}"]


MEMBER_FIXTURE = """
namespace demo {
struct FixtureBase { int inherited = 0; };
struct FixtureOptions : public FixtureBase {
  int real_knob = 1;  // ghost_knob was removed
  std::chrono::milliseconds timeout{1'000};
  void Reset();
};
}  // namespace demo
"""


def member_check_self_test():
    """The member check must flag a doc naming a field the struct does
    not declare (a comment mentioning it does not count) and pass real
    members. Returns problems."""
    types = declared_members([MEMBER_FIXTURE])
    problems = []
    for token in ["FixtureOptions::made_up_knob",
                  "demo::FixtureOptions::ghost_knob"]:
        if not check_member(token, types):
            problems.append(
                f"member self-check: made-up member not caught: `{token}`")
    for token in ["FixtureOptions::real_knob", "demo::FixtureOptions::timeout",
                  "FixtureOptions::Reset()", "FixtureOptions::inherited",
                  "demo::FixtureOptions", "demo::Unknown::anything"]:
        for problem in check_member(token, types):
            problems.append(f"member self-check: false alarm: {problem}")
    return problems


# `namespace rpg::text {`, `namespace internal {`.
NAMESPACE_RE = re.compile(r"\bnamespace\s+(?P<names>\w+(?:::\w+)*)\s*\{")
# `class Name`, `struct Name`, `enum class Name`, `using Name =`.
TYPE_NAME_RE = re.compile(
    r"\b(?:(?:class|struct|enum(?:\s+class)?)\s+(?:\w+::)*|using\s+)"
    r"(?P<name>\w+)")
# A function declaration or definition: a name and its parameter list
# right after a return type (`Status Foo(`, `std::vector<T> Foo(`,
# `const T& Foo(`) — not after `.`, `->`, `::` or an operator, as a call
# would be.
FUNCTION_RE = re.compile(
    r"(?:\b(?P<before>\w+)\s+|[>*&]\s*)(?P<name>\w+)\s*\(")
NOT_RETURN_TYPES = {"return", "new", "delete", "throw", "else", "case",
                    "co_return", "sizeof", "typename", "operator"}


def declared_names(sources):
    """(namespaces, names) over `sources` (C++ texts): every namespace,
    and every class, struct, enum, alias and function name declared."""
    namespaces, names = set(), set()
    for text in sources:
        text = CPP_NOISE_RE.sub(" ", DIGIT_SEP_RE.sub("", text))
        for m in NAMESPACE_RE.finditer(text):
            namespaces.update(m.group("names").split("::"))
        names.update(m.group("name") for m in TYPE_NAME_RE.finditer(text))
        names.update(m.group("name") for m in FUNCTION_RE.finditer(text)
                     if m.group("before") not in NOT_RETURN_TYPES)
    return namespaces, names | namespaces


def check_name(token, declared):
    """Problems for an `ns::Name` token whose namespace prefix is declared
    under src/ but whose Name is not."""
    namespaces, names = declared
    m = re.fullmatch(r"(?P<path>\w+(?:::~?\w+)+)(?:\(.*\))?", token)
    if not m:
        return []
    parts = m.group("path").split("::")
    i = 0
    while i < len(parts) - 1 and parts[i] in namespaces:
        i += 1
    if i == 0 or parts[i] in names:
        return []
    return [f"`{token}`: no class, struct, enum, alias or function "
            f"{parts[i]} is declared under src/"]


NAME_FIXTURE = """
namespace rpg::text {
using TermId = uint32_t;
enum class Mode : uint8_t { kA, kB };
class TfIdfModel {
 public:
  SparseVector Vectorize(const std::vector<TermId>& ids) const;
};
std::vector<std::string> Tokenize(std::string_view text);
// class TfIdf was renamed TfIdfModel
}  // namespace rpg::text
"""


def name_check_self_test():
    """The name check must flag a doc naming a type that src/ does not
    declare (a comment mentioning it does not count) and pass real
    names. Returns problems."""
    declared = declared_names([NAME_FIXTURE])
    problems = []
    for token in ["text::TfIdf", "rpg::text::TfIdf", "text::Tokenizer",
                  "text::TfIdf::Vectorize()"]:
        if not check_name(token, declared):
            problems.append(
                f"name self-check: undeclared name not caught: `{token}`")
    for token in ["text::TfIdfModel", "rpg::text::TermId", "text::Mode",
                  "text::Tokenize()", "text::TfIdfModel::Vectorize",
                  "rpg::text", "std::vector", "TfIdfModel::Vectorize"]:
        for problem in check_name(token, declared):
            problems.append(f"name self-check: false alarm: {problem}")
    return problems


# A bare CamelCase name: `RenderResult`, `JoinOrClaim()`. One capitalised
# word (`Publish`) or an acronym (`TSan`) is not checked.
BARE_NAME_RE = re.compile(
    r"(?P<name>[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+)(?:\(.*\))?")
GTEST_RE = re.compile(
    r"\b(?:TEST|TEST_F|TEST_P|TYPED_TEST)\s*\(\s*(\w+)\s*,\s*(\w+)")


def code_names(sources):
    """Every name declared in `sources` (C++ texts, see declared_names)
    plus every gtest suite and case name they define."""
    names = declared_names(sources)[1]
    for text in sources:
        for m in GTEST_RE.finditer(text):
            names.update(m.groups())
    return names


def check_bare_name(token, names):
    """Problems for a bare CamelCase token that `names` does not hold."""
    m = BARE_NAME_RE.fullmatch(token)
    if not m or m.group("name") in names:
        return []
    return [f"`{token}`: no class, struct, enum, alias, function or test "
            f"{m.group('name')} is declared in the code"]


BARE_NAME_FIXTURE = """
namespace rpg::serve {
struct RenderedResult { std::string path_json; };
CachedResult RenderResult(const core::RePagerResult& result);
// EstimateResultBytes was deleted with the one-formula charge
}  // namespace rpg::serve
TEST(QueryCacheTest, PositiveEntryIsChargedItsKey) {}
"""


def bare_name_check_self_test():
    """The bare-name check must flag a doc naming a function the code
    does not declare (a comment mentioning it does not count) and pass
    declared names, test names and tokens it does not check. Returns
    problems."""
    names = code_names([BARE_NAME_FIXTURE])
    problems = []
    for token in ["EstimateResultBytes", "EstimateResultBytes()",
                  "RenderResults"]:
        if not check_bare_name(token, names):
            problems.append(
                f"bare-name self-check: undeclared name not caught: `{token}`")
    for token in ["RenderResult", "RenderResult(result, epoch)",
                  "RenderedResult", "QueryCacheTest",
                  "PositiveEntryIsChargedItsKey", "Publish", "TSan",
                  "serve::Unknown", "path_json"]:
        for problem in check_bare_name(token, names):
            problems.append(f"bare-name self-check: false alarm: {problem}")
    return problems


SRC_FILES = [path for path in sorted((ROOT / "src").rglob("*"))
             if path.suffix in (".h", ".cc")]
SRC_TEXTS = [path.read_text(encoding="utf-8", errors="replace")
             for path in SRC_FILES]
SRC_TYPES = declared_members(SRC_TEXTS)
SRC_NAMES = declared_names(SRC_TEXTS)
CODE_NAMES = code_names([
    path.read_text(encoding="utf-8", errors="replace")
    for top in ("src", "tests", "bench", "perfbench", "examples", "fuzz")
    for path in sorted((ROOT / top).rglob("*"))
    if path.suffix in (".h", ".cc", ".cpp")])

# A Markdown file named in a comment: `README.md`, `docs/snapshot.md`.
MD_REF_RE = re.compile(r"(?<![\w./-])[\w./-]*\w\.md\b")


def missing_md_refs(path, text):
    """Problems for every *.md file named in a comment of the C++ source
    `text` (at `path`) that exists neither under the repository root
    nor next to `path`. String literals do not count."""
    problems = []
    text = DIGIT_SEP_RE.sub("", text)
    for m in CPP_NOISE_RE.finditer(text):
        if not m.group(0).startswith(("//", "/*")):
            continue
        for ref in MD_REF_RE.findall(m.group(0)):
            if not ((ROOT / ref).exists() or (path.parent / ref).exists()):
                line_no = text.count("\n", 0, m.start()) + 1
                problems.append(f"{path.relative_to(ROOT)}:{line_no}: "
                                f"comment names missing {ref}")
    return problems


MD_REF_FIXTURE = """
/// Structural con stands in for mention counts (see DESIGN.md §2);
/// docs/snapshot.md has the layout and README.md the rationale.
const char* kNote = "a string, not a comment: GHOST.md";
"""


def md_ref_check_self_test():
    """The comment check must flag a header citing the missing DESIGN.md
    and nothing else in the fixture. Returns problems."""
    found = missing_md_refs(ROOT / "src" / "fixture.h", MD_REF_FIXTURE)
    problems = []
    if not any(p.endswith("missing DESIGN.md") for p in found):
        problems.append("md-ref self-check: DESIGN.md not caught")
    for p in found:
        if not p.endswith("missing DESIGN.md"):
            problems.append(f"md-ref self-check: false alarm: {p}")
    return problems


CODE_FILES = [path for top in ("src", "bench", "tests")
              for path in sorted((ROOT / top).rglob("*"))
              if path.suffix in (".h", ".cc", ".cpp")]


def roadmap_refs(path, text):
    """Problems for every comment of the C++ source `text` (at `path`)
    that mentions ROADMAP. String literals do not count."""
    problems = []
    text = DIGIT_SEP_RE.sub("", text)
    for m in CPP_NOISE_RE.finditer(text):
        if m.group(0).startswith(("//", "/*")) and "ROADMAP" in m.group(0):
            line_no = text.count("\n", 0, m.start()) + 1
            problems.append(f"{path.relative_to(ROOT)}:{line_no}: "
                            f"comment points into ROADMAP")
    return problems


ROADMAP_FIXTURE = """
/// Open-addressing containers for the hot path (ROADMAP item 4).
const char* kNote = "a string, not a comment: ROADMAP";
"""


def roadmap_check_self_test():
    """The roadmap check must flag the fixture's comment and not its
    string literal. Returns problems."""
    found = roadmap_refs(ROOT / "src" / "fixture.h", ROADMAP_FIXTURE)
    if [p.rsplit(":", 2)[-2] for p in found] != ["2"]:
        return [f"roadmap self-check: expected one hit on line 2, got {found}"]
    return []


# The names StageName returns, one per `case Stage::k...: return "...";`.
STAGE_NAME_RE = re.compile(r'case\s+Stage::\w+:\s*return\s+"([^"]+)";')
# The first column of every row of the "Span taxonomy" table.
SPAN_ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|", re.M)


def span_taxonomy_problems(doc_text, trace_text):
    """Problems when the "## Span taxonomy" table of `doc_text` (the
    observability doc) names other spans than the StageName switch of
    `trace_text` (src/obs/trace.cc) returns."""
    section = re.search(r"^## Span taxonomy\n(.*?)(?=^## |\Z)", doc_text,
                        re.S | re.M)
    if section is None:
        return ["docs/observability.md: no \"## Span taxonomy\" section"]
    documented = set(SPAN_ROW_RE.findall(section.group(1)))
    stages = set(STAGE_NAME_RE.findall(trace_text))
    return ([f"docs/observability.md: span `{name}` is in the Span "
             f"taxonomy table but StageName never returns it"
             for name in sorted(documented - stages)] +
            [f"docs/observability.md: StageName returns `{name}` but the "
             f"Span taxonomy table lacks it"
             for name in sorted(stages - documented)])


SPAN_TRACE_FIXTURE = """
const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kSearch:
      return "search";
    case Stage::kSolve:
      return "solve";
  }
  return "unknown";
}
"""
SPAN_DOC_FIXTURE = """
## Span taxonomy

| Span | Recorded by | Meaning |
|---|---|---|
| `search` | `RePaGer::Generate` | Seed retrieval |
{extra}| `solve` | `core::SolverPool` | Whole pipeline execution |

## Surfaces

| `metric` | not a span |
"""


def span_check_self_test():
    """The span check must flag a table that keeps a deleted `rank` span,
    and one that drops a span the code records, and pass the matching
    table. Returns problems."""
    problems = []
    matching = SPAN_DOC_FIXTURE.format(extra="")
    stale = SPAN_DOC_FIXTURE.format(
        extra="| `rank` | `RePaGer::Generate` | Final ranking |\n")
    missing = matching.replace("| `solve` |", "| solve |")
    if span_taxonomy_problems(matching, SPAN_TRACE_FIXTURE):
        problems.append("span self-check: false alarm on the matching table")
    for what, doc in (("deleted `rank` span", stale),
                      ("missing `solve` span", missing)):
        if len(span_taxonomy_problems(doc, SPAN_TRACE_FIXTURE)) != 1:
            problems.append(f"span self-check: {what} not caught")
    return problems


# The RPG_* environment variables src/ reads.
GETENV_RE = re.compile(r'std::getenv\("(RPG_\w+)"\)')
# The first cell of an environment row of the "Switches" table.
SWITCH_ROW_RE = re.compile(r"^\|\s*`(\w+)`\s*\(environment\)\s*\|", re.M)


def switch_table_problems(doc_text, src_texts):
    """Problems when the environment rows of the "## Switches" table of
    `doc_text` (the observability doc) name other variables than the
    `std::getenv("RPG_...")` calls in `src_texts` read."""
    section = re.search(r"^## Switches\n(.*?)(?=^## |\Z)", doc_text,
                        re.S | re.M)
    if section is None:
        return ["docs/observability.md: no \"## Switches\" section"]
    documented = set(SWITCH_ROW_RE.findall(section.group(1)))
    read = {name for text in src_texts for name in GETENV_RE.findall(text)}
    return ([f"docs/observability.md: `{name}` is in the Switches table "
             f"but src/ never reads it"
             for name in sorted(documented - read)] +
            [f"docs/observability.md: src/ reads `{name}` but the Switches "
             f"table lacks it"
             for name in sorted(read - documented)])


SWITCH_SRC_FIXTURE = """
bool InitialTracingEnabled() {
  const char* env = std::getenv("RPG_TRACING");
  return env == nullptr || env[0] != '0';
}
"""
SWITCH_DOC_FIXTURE = """
## Switches

| Switch | Kind | Effect |
|---|---|---|
| `RPG_TRACING` (environment) | process start | Tracing off switch. |
| `HttpServerOptions::slow_query_threshold` | per server | Threshold. |
{extra}
## Overhead

| `RPG_OTHER` (environment) | not in the Switches section |
"""


def switch_check_self_test():
    """The switch check must flag a table that keeps a removed
    `RPG_LOG_LEVEL` row, and one that drops `RPG_TRACING`, which the
    fixture reads, and pass the matching table. Returns problems."""
    problems = []
    matching = SWITCH_DOC_FIXTURE.format(extra="")
    stale = SWITCH_DOC_FIXTURE.format(
        extra="| `RPG_LOG_LEVEL` (environment) | process start | Level. |\n")
    missing = matching.replace("| `RPG_TRACING` (environment) |",
                               "| RPG_TRACING |")
    if switch_table_problems(matching, [SWITCH_SRC_FIXTURE]):
        problems.append("switch self-check: false alarm on the matching "
                        "table")
    for what, doc in (("removed `RPG_LOG_LEVEL` row", stale),
                      ("missing `RPG_TRACING` row", missing)):
        if len(switch_table_problems(doc, [SWITCH_SRC_FIXTURE])) != 1:
            problems.append(f"switch self-check: {what} not caught")
    return problems


# A bound quote: a comparison operator and a number, either right after
# a metric name ("overhead_ratio <= 1.05") or after the word "gated"
# ("gated ≥ 0.9"), which refers to the closest metric named before it
# in the same paragraph. Percentages ("≤ 5 %") are prose, not quotes.
OPERATORS = {"<=": "max", "≤": "max", "<": "max",
             ">=": "min", "≥": "min", ">": "min"}
OP_RE = "|".join(re.escape(op) for op in sorted(OPERATORS, key=len,
                                                  reverse=True))
NAME_RE = re.compile(r"(?<![\w.])[A-Za-z_][\w.]*")
QUOTE_RE = re.compile(
    rf"(?<![\w.])(?P<name>gated|[A-Za-z_][\w.]*)\s*(?P<op>{OP_RE})\s*"
    r"(?P<num>\d+(?:\.\d+)?|\.\d+)(?!\.?\d)(?!\s*%)")


def load_bench_gate():
    """Imports scripts/check_bench_regression.py as a module."""
    path = ROOT / "scripts" / "check_bench_regression.py"
    spec = importlib.util.spec_from_file_location("check_bench_regression",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def gated_bounds(module):
    """{metric: {"max"|"min": {bounds}}} over every *_LIMITS table, keyed
    by both the JSON path and its last component."""
    bounds = {}
    for name, table in vars(module).items():
        if not name.endswith("_LIMITS"):
            continue
        for entry in table:
            path, kind, bound = entry
            for key in {path, path.rsplit(".", 1)[-1]}:
                bounds.setdefault(key, {}).setdefault(kind, set()).add(bound)
    return bounds


def check_bounds(text, bounds):
    """Returns (line_no, problem) for every quoted bound in `text` that
    disagrees with `bounds`."""
    problems = []
    text = text.replace("`", "")
    offset = 0
    for paragraph in re.split(r"(\n\s*\n)", text):
        for m in QUOTE_RE.finditer(paragraph):
            name = m.group("name")
            if name == "gated":
                named = [n.group(0) for n in
                         NAME_RE.finditer(paragraph, 0, m.start())
                         if n.group(0) in bounds]
                if not named:
                    continue
                name = named[-1]
            elif name not in bounds:
                continue
            kind = OPERATORS[m.group("op")]
            quoted = float(m.group("num"))
            allowed = bounds[name].get(kind, set())
            if not any(math.isclose(quoted, b) for b in allowed):
                line_no = text.count("\n", 0, offset + m.start()) + 1
                gate = ", ".join(f"{k} {b:g}" for k, bs in
                                 sorted(bounds[name].items()) for b in bs)
                problems.append(
                    (line_no, f"`{name}` quoted as {m.group('op')} "
                              f"{m.group('num')} but the gate is {gate}"))
        offset += len(paragraph)
    return problems


def bound_check_self_test():
    """The bound check must flag the drift it exists for: a doc quoting
    the old 1.02 tracing bound against a 1.05 table, or a stage ceiling
    from before it was tightened. Returns problems."""

    class Fixture:
        TABLE4_LIMITS = [
            ("tracing.overhead_ratio", "max", 1.05),
            ("stages.attributed_fraction", "min", 0.90),
            ("stages.edge_cost_ms", "max", 0.4),
            ("stages.search_ms", "max", 0.45),
        ]

    bounds = gated_bounds(Fixture)
    stale = ["gated `overhead_ratio <= 1.02`",
             "`tracing.overhead_ratio`, gated ≤ 1.02 by the perf gate",
             "`attributed_fraction` (the spans' share;\ngated ≥ 0.8)",
             "and `stages.edge_cost_ms ≤ 6.7` — the acceptance bound",
             "`stages.search_ms ≤ 0.65` (a reusable BM25 accumulator"]
    current = ["gated `overhead_ratio <= 1.05`",
               "`tracing.overhead_ratio`, gated ≤ 1.05 by the perf gate",
               "`attributed_fraction` (the spans' share;\ngated ≥ 0.9)",
               "`overhead_ratio` was 1.02 before the kernel rewrite",
               "`stages.edge_cost_ms ≤ 0.4` (0.12–0.19 ms, was 4.3–5.7)",
               "`stages.search_ms ≤ 0.45` (0.26–0.39 ms, was 0.37–0.62)"]
    problems = []
    for doc in stale:
        if not check_bounds(doc, bounds):
            problems.append(f"bound self-check: stale quote not caught: {doc!r}")
    for doc in current:
        for _, problem in check_bounds(doc, bounds):
            problems.append(f"bound self-check: false alarm on {doc!r}: "
                            f"{problem}")
    return problems


def expand_braces(token: str):
    """repager.{h,cc} -> [repager.h, repager.cc]; nested braces unsupported."""
    m = re.search(r"\{([^{}]*)\}", token)
    if not m:
        return [token]
    head, tail = token[: m.start()], token[m.end():]
    return list(
        itertools.chain.from_iterable(
            expand_braces(head + alt + tail) for alt in m.group(1).split(",")
        )
    )


def check_token(token: str):
    """Returns a list of problems for one backticked token."""
    problems = []
    if token.startswith(PATH_PREFIXES) and PATH_RE.match(token):
        for path in expand_braces(token):
            target = ROOT / path.rstrip("/")
            if not target.exists():
                problems.append(f"path `{token}` -> missing {path}")
    elif re.fullmatch(r"bench_[a-z0-9_]+", token):
        if not (ROOT / "bench" / f"{token}.cpp").exists():
            problems.append(f"bench target `{token}` has no bench/{token}.cpp")
    elif re.fullmatch(r"rpg_([a-z0-9]+)_test", token):
        suite = re.fullmatch(r"rpg_([a-z0-9]+)_test", token).group(1)
        if not (ROOT / "tests" / suite).is_dir():
            problems.append(f"test binary `{token}` has no tests/{suite}/")
    else:
        # `./build/<name> ...` invocations must name a real CMake target.
        m = re.match(r"\./build/([A-Za-z0-9_]+)", token)
        if m and m.group(1) not in TARGETS:
            problems.append(
                f"`{token}` names unknown CMake target {m.group(1)}")
        problems += check_name(token, SRC_NAMES)
        problems += check_member(token, SRC_TYPES)
        problems += check_bare_name(token, CODE_NAMES)
    return problems


def main() -> int:
    failures = (bound_check_self_test() + member_check_self_test() +
                name_check_self_test() + bare_name_check_self_test() +
                span_check_self_test() + switch_check_self_test() +
                md_ref_check_self_test() + roadmap_check_self_test())
    observability = (ROOT / "docs" / "observability.md").read_text(
        encoding="utf-8")
    failures += span_taxonomy_problems(
        observability,
        (ROOT / "src" / "obs" / "trace.cc").read_text(encoding="utf-8"))
    failures += switch_table_problems(observability, SRC_TEXTS)
    for path, text in zip(SRC_FILES, SRC_TEXTS):
        failures += missing_md_refs(path, text)
    for path in CODE_FILES:
        failures += roadmap_refs(
            path, path.read_text(encoding="utf-8", errors="replace"))
    gate = load_bench_gate()
    bounds = gated_bounds(gate)
    for line_no, problem in check_bounds(gate.__doc__, bounds):
        failures.append(f"scripts/check_bench_regression.py docstring:"
                        f"{line_no}: {problem}")
    for doc in DOC_FILES:
        doc_path = ROOT / doc
        if not doc_path.exists():
            failures.append(f"{doc}: file missing")
            continue
        text = doc_path.read_text(encoding="utf-8")
        # Strip fenced code blocks (commands there may reference build
        # outputs that only exist after a build), preserving line numbers.
        text = re.sub(
            r"```.*?```", lambda m: "\n" * m.group(0).count("\n"), text,
            flags=re.S)
        for line_no, line in enumerate(text.splitlines(), 1):
            for token in re.findall(r"`([^`\n]+)`", line):
                for problem in check_token(token.strip()):
                    failures.append(f"{doc}:{line_no}: {problem}")
        for line_no, problem in check_bounds(text, bounds):
            failures.append(f"{doc}:{line_no}: {problem}")
    if failures:
        print("docs_check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"docs_check OK ({', '.join(DOC_FILES)}; comments in "
          f"{len(CODE_FILES)} src/, bench/ and tests/ files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
