/**
 * @file
 * Minimal JSON value type, serializer, and parser.
 *
 * The campaign runner emits machine-readable benchmark results
 * (BENCH_*.json) that tools/bench_diff.py consumes; this is the small
 * dependency-free writer behind that. Objects preserve insertion order
 * so emitted files diff cleanly across runs. The parser exists for the
 * crash-safe execution layer: the campaign journal (sam-journal-v1
 * JSONL) and the supervised-worker result pipe are both JSON that the
 * C++ side must read back. A value that round-trips through
 * parse() + dump() re-serializes byte-identically (doubles use
 * shortest-exact formatting on both sides), which is what makes
 * resumed campaign output bit-identical to an uninterrupted run.
 */

#ifndef SAM_COMMON_JSON_HH
#define SAM_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sam {

class Json
{
  public:
    enum class Kind { Null, Bool, Int, Uint, Double, String, Array, Object };

    Json() = default;
    Json(bool v) : kind_(Kind::Bool), bool_(v) {}
    Json(int v) : kind_(Kind::Int), int_(v) {}
    Json(std::int64_t v) : kind_(Kind::Int), int_(v) {}
    Json(unsigned v) : kind_(Kind::Uint), uint_(v) {}
    Json(std::uint64_t v) : kind_(Kind::Uint), uint_(v) {}
    Json(double v) : kind_(Kind::Double), double_(v) {}
    Json(const char *v) : kind_(Kind::String), string_(v) {}
    Json(std::string v) : kind_(Kind::String), string_(std::move(v)) {}

    static Json object() { return Json(Kind::Object); }
    static Json array() { return Json(Kind::Array); }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isString() const { return kind_ == Kind::String; }
    bool
    isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::Uint ||
               kind_ == Kind::Double;
    }

    /** Object member insert/overwrite; keeps first-insertion order. */
    Json &set(const std::string &key, Json value);

    /** Array append. */
    Json &push(Json value);

    /** Object member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Array / object element count; 0 for scalars. */
    std::size_t size() const;

    /** Array element (panics when out of range or not an array). */
    const Json &at(std::size_t i) const;

    /** Object members in insertion order (empty for non-objects). */
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return object_;
    }

    // Scalar accessors: return the fallback on kind mismatch; numeric
    // kinds coerce among each other so a reader never cares whether
    // "3" was parsed as Int, Uint, or Double.
    bool asBool(bool fallback = false) const;
    std::int64_t asI64(std::int64_t fallback = 0) const;
    std::uint64_t asU64(std::uint64_t fallback = 0) const;
    double asDouble(double fallback = 0.0) const;
    std::string asString(const std::string &fallback = {}) const;

    /** Serialize; `indent` spaces per level, 0 for compact. */
    std::string dump(int indent = 2) const;

    /**
     * Parse one JSON document. Returns false (leaving `out` null) and
     * fills `error` with a position-tagged diagnostic on malformed
     * input, including trailing garbage after the document.
     */
    static bool parse(const std::string &text, Json &out,
                      std::string &error);

  private:
    explicit Json(Kind kind) : kind_(kind) {}

    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;
};

/**
 * Write a JSON document to `path` atomically (fatal() on I/O failure:
 * the path is the caller's, so an unwritable one is a user error):
 * the serialized text goes to `path + ".tmp"`, is flushed and fsynced,
 * and is renamed over `path` only then. An interrupted run can
 * therefore never leave a truncated BENCH/telemetry/trace file for
 * downstream consumers (bench_diff.py and friends) to trip over —
 * readers see either the old complete document or the new one.
 */
void writeJsonFile(const std::string &path, const Json &doc);

} // namespace sam

#endif // SAM_COMMON_JSON_HH
