/**
 * @file
 * Token-level C++ reader for samlint.
 *
 * samlint's checks are project-convention checks, not type checks, so
 * a full frontend is not required.
 * The lexer produces a comment- and literal-stripped token stream with
 * line numbers, the file's `#include "src/..."` edges (for the
 * bit-identity surface reachability walk), its preprocessor directives
 * (include guards, include paths), and NOLINT / NOLINTNEXTLINE
 * suppressions parsed out of comments, clang-tidy style:
 *
 *     overlay_.begin(); // NOLINT(sam-determinism): justified because...
 *     // NOLINTNEXTLINE(sam-determinism)
 *
 * A bare NOLINT (no check list) suppresses every check on that line.
 */

#ifndef SAM_TOOLS_SAMLINT_LEXER_HH
#define SAM_TOOLS_SAMLINT_LEXER_HH

#include <string>
#include <unordered_map>
#include <vector>

namespace samlint {

/** One token: an identifier/number or a single punctuation char. */
struct Token
{
    std::string text;
    unsigned line = 0;
};

/** One preprocessor directive: `#ifndef X` is {"ifndef", "X", line}. */
struct Directive
{
    std::string name;
    /** First word after the name, as written (`"a/b.hh"`, `<vector>`). */
    std::string arg;
    unsigned line = 0;
};

/** One lexed translation unit (or header). */
struct SourceFile
{
    /** Repo-relative path with forward slashes (e.g. "src/sim/x.cc"). */
    std::string path;
    std::vector<Token> tokens;
    /** Targets of `#include "..."` directives, as written. */
    std::vector<std::string> includes;
    /** Every preprocessor directive, in file order. */
    std::vector<Directive> directives;
    /** Line -> suppressed check names ("" suppresses all checks). */
    std::unordered_map<unsigned, std::vector<std::string>> nolint;

    /** True when `check` findings on `line` are suppressed. */
    bool suppressed(unsigned line, const std::string &check) const;

    /** Directory part of `path` ("src/sim" for "src/sim/x.cc"). */
    std::string dir() const;
};

/** Lex the file at `abs_path`, recording `rel_path` as its identity. */
SourceFile lexFile(const std::string &abs_path,
                   const std::string &rel_path);

/** Lex from an in-memory buffer (tests). */
SourceFile lexString(const std::string &text,
                     const std::string &rel_path);

} // namespace samlint

#endif // SAM_TOOLS_SAMLINT_LEXER_HH
