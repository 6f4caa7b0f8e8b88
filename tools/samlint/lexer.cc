#include "tools/samlint/lexer.hh"

#include <cctype>
#include <fstream>
#include <sstream>

namespace samlint {

namespace {

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** Record NOLINT markers found in one comment's text. */
void
recordNolint(SourceFile &out, const std::string &comment,
             unsigned comment_line)
{
    static const std::string kNext = "NOLINTNEXTLINE";
    static const std::string kHere = "NOLINT";
    bool next_line = false;
    std::size_t at = comment.find(kNext);
    std::size_t tail;
    if (at != std::string::npos) {
        next_line = true;
        tail = at + kNext.size();
    } else {
        at = comment.find(kHere);
        if (at == std::string::npos)
            return;
        tail = at + kHere.size();
    }
    std::vector<std::string> checks;
    if (tail < comment.size() && comment[tail] == '(') {
        const std::size_t close = comment.find(')', tail);
        if (close != std::string::npos) {
            std::string list = comment.substr(tail + 1,
                                              close - tail - 1);
            std::size_t pos = 0;
            while (pos <= list.size()) {
                const std::size_t comma = list.find(',', pos);
                const std::string item = trim(
                    list.substr(pos, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - pos));
                if (!item.empty())
                    checks.push_back(item);
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
        }
    }
    if (checks.empty())
        checks.push_back(""); // Bare NOLINT: everything.
    const unsigned target = comment_line + (next_line ? 1 : 0);
    auto &slot = out.nolint[target];
    slot.insert(slot.end(), checks.begin(), checks.end());
}

} // namespace

bool
SourceFile::suppressed(unsigned line, const std::string &check) const
{
    const auto it = nolint.find(line);
    if (it == nolint.end())
        return false;
    for (const std::string &c : it->second) {
        if (c.empty() || c == check)
            return true;
    }
    return false;
}

std::string
SourceFile::dir() const
{
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash);
}

SourceFile
lexString(const std::string &s, const std::string &rel_path)
{
    SourceFile out;
    out.path = rel_path;
    unsigned line = 1;
    std::size_t i = 0;
    const std::size_t n = s.size();
    bool line_start = true; // Only whitespace so far on this line.

    const auto countLines = [&](std::size_t from, std::size_t to) {
        for (std::size_t k = from; k < to; ++k) {
            if (s[k] == '\n')
                ++line;
        }
    };

    while (i < n) {
        const char c = s[i];
        if (c == '\n') {
            ++line;
            ++i;
            line_start = true;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        // Comments (NOLINT markers live here).
        if (c == '/' && i + 1 < n && s[i + 1] == '/') {
            std::size_t end = s.find('\n', i);
            if (end == std::string::npos)
                end = n;
            recordNolint(out, s.substr(i, end - i), line);
            i = end;
            continue;
        }
        if (c == '/' && i + 1 < n && s[i + 1] == '*') {
            std::size_t end = s.find("*/", i + 2);
            if (end == std::string::npos)
                end = n;
            else
                end += 2;
            recordNolint(out, s.substr(i, end - i), line);
            countLines(i, end);
            i = end;
            continue;
        }
        // Preprocessor directives: capture includes, emit no tokens.
        if (c == '#' && line_start) {
            std::size_t end = i;
            while (end < n) {
                end = s.find('\n', end);
                if (end == std::string::npos) {
                    end = n;
                    break;
                }
                // Honor line continuations.
                std::size_t back = end;
                while (back > i &&
                       std::isspace(static_cast<unsigned char>(
                           s[back - 1])) &&
                       s[back - 1] != '\n')
                    --back;
                if (back > i && s[back - 1] == '\\') {
                    ++end;
                    continue;
                }
                break;
            }
            const std::string text = s.substr(i, end - i);
            std::istringstream words(text.substr(1));
            Directive d;
            d.line = line;
            words >> d.name >> d.arg;
            out.directives.push_back(std::move(d));
            std::size_t inc = text.find("include");
            if (inc != std::string::npos) {
                const std::size_t q1 = text.find('"', inc);
                if (q1 != std::string::npos) {
                    const std::size_t q2 = text.find('"', q1 + 1);
                    if (q2 != std::string::npos)
                        out.includes.push_back(
                            text.substr(q1 + 1, q2 - q1 - 1));
                }
            }
            countLines(i, end);
            i = end;
            continue;
        }
        // String and char literals: stripped. Raw strings carry their
        // own delimiter.
        if (c == '"') {
            const bool raw =
                !out.tokens.empty() && out.tokens.back().line == line &&
                (out.tokens.back().text == "R" ||
                 (out.tokens.back().text.size() > 1 &&
                  out.tokens.back().text.back() == 'R'));
            if (raw) {
                const std::size_t open = s.find('(', i);
                std::string delim =
                    open == std::string::npos
                        ? std::string()
                        : s.substr(i + 1, open - i - 1);
                const std::string closer = ")" + delim + "\"";
                std::size_t end =
                    open == std::string::npos
                        ? std::string::npos
                        : s.find(closer, open + 1);
                end = end == std::string::npos ? n
                                               : end + closer.size();
                countLines(i, end);
                i = end;
            } else {
                std::size_t k = i + 1;
                while (k < n && s[k] != '"') {
                    if (s[k] == '\\')
                        ++k;
                    ++k;
                }
                countLines(i, std::min(k + 1, n));
                i = std::min(k + 1, n);
            }
            line_start = false;
            continue;
        }
        if (c == '\'') {
            std::size_t k = i + 1;
            while (k < n && s[k] != '\'') {
                if (s[k] == '\\')
                    ++k;
                ++k;
            }
            i = std::min(k + 1, n);
            line_start = false;
            continue;
        }
        line_start = false;
        if (identChar(c)) {
            std::size_t k = i;
            while (k < n && identChar(s[k]))
                ++k;
            out.tokens.push_back({s.substr(i, k - i), line});
            i = k;
            continue;
        }
        out.tokens.push_back({std::string(1, c), line});
        ++i;
    }
    return out;
}

SourceFile
lexFile(const std::string &abs_path, const std::string &rel_path)
{
    std::ifstream in(abs_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return lexString(buf.str(), rel_path);
}

} // namespace samlint
