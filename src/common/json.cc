#include "src/common/json.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "src/common/logging.hh"

namespace sam {

Json &
Json::set(const std::string &key, Json value)
{
    sam_assert(kind_ == Kind::Object, "Json::set on a non-object");
    for (auto &member : object_) {
        if (member.first == key) {
            member.second = std::move(value);
            return *this;
        }
    }
    object_.emplace_back(key, std::move(value));
    return *this;
}

Json &
Json::push(Json value)
{
    sam_assert(kind_ == Kind::Array, "Json::push on a non-array");
    array_.push_back(std::move(value));
    return *this;
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &member : object_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

std::size_t
Json::size() const
{
    if (kind_ == Kind::Array)
        return array_.size();
    if (kind_ == Kind::Object)
        return object_.size();
    return 0;
}

const Json &
Json::at(std::size_t i) const
{
    sam_assert(kind_ == Kind::Array, "Json::at on a non-array");
    sam_assert(i < array_.size(), "Json::at(", i, ") of ",
               array_.size());
    return array_[i];
}

bool
Json::asBool(bool fallback) const
{
    return kind_ == Kind::Bool ? bool_ : fallback;
}

std::int64_t
Json::asI64(std::int64_t fallback) const
{
    switch (kind_) {
      case Kind::Int: return int_;
      case Kind::Uint: return static_cast<std::int64_t>(uint_);
      case Kind::Double: return static_cast<std::int64_t>(double_);
      default: return fallback;
    }
}

std::uint64_t
Json::asU64(std::uint64_t fallback) const
{
    switch (kind_) {
      case Kind::Int:
        return int_ < 0 ? fallback : static_cast<std::uint64_t>(int_);
      case Kind::Uint: return uint_;
      case Kind::Double:
        return double_ < 0 ? fallback
                           : static_cast<std::uint64_t>(double_);
      default: return fallback;
    }
}

double
Json::asDouble(double fallback) const
{
    switch (kind_) {
      case Kind::Int: return static_cast<double>(int_);
      case Kind::Uint: return static_cast<double>(uint_);
      case Kind::Double: return double_;
      default: return fallback;
    }
}

std::string
Json::asString(const std::string &fallback) const
{
    return kind_ == Kind::String ? string_ : fallback;
}

namespace {

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendDouble(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; null is the conventional stand-in.
        out += "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // Trim the round-trip precision back when a shorter form is exact.
    char shorter[32];
    for (int prec = 1; prec < 17; ++prec) {
        std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
        double back = 0.0;
        std::sscanf(shorter, "%lf", &back);
        if (back == v) {
            out += shorter;
            return;
        }
    }
    out += buf;
}

void
appendNewlineIndent(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) *
               static_cast<std::size_t>(depth), ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Int:
        out += std::to_string(int_);
        break;
      case Kind::Uint:
        out += std::to_string(uint_);
        break;
      case Kind::Double:
        appendDouble(out, double_);
        break;
      case Kind::String:
        appendEscaped(out, string_);
        break;
      case Kind::Array:
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i)
                out += ',';
            appendNewlineIndent(out, indent, depth + 1);
            array_[i].dumpTo(out, indent, depth + 1);
        }
        appendNewlineIndent(out, indent, depth);
        out += ']';
        break;
      case Kind::Object:
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i)
                out += ',';
            appendNewlineIndent(out, indent, depth + 1);
            appendEscaped(out, object_[i].first);
            out += indent > 0 ? ": " : ":";
            object_[i].second.dumpTo(out, indent, depth + 1);
        }
        appendNewlineIndent(out, indent, depth);
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent > 0)
        out += '\n';
    return out;
}

// ----- parser --------------------------------------------------------

namespace {

/** Recursive-descent parser over one in-memory document. */
class Parser
{
  public:
    Parser(const std::string &text, std::string &error)
        : text_(text), error_(error)
    {
    }

    bool
    document(Json &out)
    {
        skipWs();
        if (!value(out, 0))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing garbage after the document");
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        error_ = "offset " + std::to_string(pos_) + ": " + what;
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word, Json v, Json &out)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += n;
        out = std::move(v);
        return true;
    }

    bool
    string(std::string &out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected '\"'");
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            if (++pos_ >= text_.size())
                return fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                // UTF-8 encode; surrogate pairs are not combined
                // (the writer never emits them).
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xC0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
              }
              default: return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    number(Json &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        bool integral = true;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        const std::string tok = text_.substr(start, pos_ - start);
        if (tok.empty() || tok == "-")
            return fail("expected a number");
        // RFC 8259: no leading zeros ("01"), so parse -> dump stays
        // byte-identical (the writer never emits them either).
        const std::size_t first = tok[0] == '-' ? 1 : 0;
        if (tok.size() > first + 1 && tok[first] == '0' &&
            tok[first + 1] >= '0' && tok[first + 1] <= '9')
            return fail("leading zero in number '" + tok + "'");
        errno = 0;
        if (integral) {
            // Preserve the full 64-bit range: unsigned first, signed
            // for negatives; overflow falls back to double.
            char *end = nullptr;
            if (tok[0] != '-') {
                const unsigned long long u =
                    std::strtoull(tok.c_str(), &end, 10);
                if (errno == 0 && end && *end == '\0') {
                    out = Json(static_cast<std::uint64_t>(u));
                    return true;
                }
            } else {
                const long long i = std::strtoll(tok.c_str(), &end, 10);
                if (errno == 0 && end && *end == '\0') {
                    out = Json(static_cast<std::int64_t>(i));
                    return true;
                }
            }
            errno = 0;
        }
        char *end = nullptr;
        const double d = std::strtod(tok.c_str(), &end);
        if (end == nullptr || *end != '\0')
            return fail("malformed number '" + tok + "'");
        out = Json(d);
        return true;
    }

    bool
    value(Json &out, int depth)
    {
        if (depth > 96)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case 'n': return literal("null", Json(), out);
          case 't': return literal("true", Json(true), out);
          case 'f': return literal("false", Json(false), out);
          case '"': {
            std::string s;
            if (!string(s))
                return false;
            out = Json(std::move(s));
            return true;
          }
          case '[': {
            ++pos_;
            out = Json::array();
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                Json elem;
                skipWs();
                if (!value(elem, depth + 1))
                    return false;
                out.push(std::move(elem));
                skipWs();
                if (pos_ >= text_.size())
                    return fail("unterminated array");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
          }
          case '{': {
            ++pos_;
            out = Json::object();
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!string(key))
                    return false;
                skipWs();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return fail("expected ':'");
                ++pos_;
                skipWs();
                Json member;
                if (!value(member, depth + 1))
                    return false;
                out.set(key, std::move(member));
                skipWs();
                if (pos_ >= text_.size())
                    return fail("unterminated object");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
          }
          default: return number(out);
        }
    }

    const std::string &text_;
    std::string &error_;
    std::size_t pos_ = 0;
};

} // namespace

bool
Json::parse(const std::string &text, Json &out, std::string &error)
{
    out = Json();
    error.clear();
    Parser parser(text, error);
    Json parsed;
    if (!parser.document(parsed))
        return false;
    out = std::move(parsed);
    return true;
}

void
writeJsonFile(const std::string &path, const Json &doc)
{
    // Write-to-temp + fsync + rename: the destination path either
    // keeps its previous complete contents or atomically becomes the
    // new document; no reader can observe a truncated file, even if
    // the host dies between the write and the rename.
    const std::string tmp = path + ".tmp";
    const std::string text = doc.dump();
    {
        std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
        if (!out.good())
            fatal("cannot open ", tmp, " for writing");
        out << text;
        out.flush();
        if (!out.good())
            fatal("write to ", tmp, " failed");
    }
    const int fd = ::open(tmp.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd); // Best effort; rename still orders the contents.
        ::close(fd);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        std::remove(tmp.c_str());
        fatal("rename ", tmp, " -> ", path, " failed: ",
              std::strerror(err));
    }
}

} // namespace sam
