/**
 * @file
 * The one JSON codec: every JSON document TriQ reads or writes goes
 * through here — triqd's newline-delimited wire format, the sweep
 * journal and results matrix, `triqc --diag-json`, compile reports,
 * diagnostics and the bench reports.
 *
 * The triqd input surface is adversarial by definition (anything can
 * connect to a socket), so the parser is written like the
 * ScaffLite/QASM front ends: it never throws on bad input, never reads
 * past the buffer, bounds its recursion depth, and reports the first
 * problem as a position + message pair the caller can embed in a
 * structured error reply. Numbers are parsed as doubles (the protocol
 * has no integer wider than 2^53), strings accept the JSON escapes and
 * pass other bytes through untouched so a frame survives a round trip.
 *
 * Emission goes through JsonWriter, a minimal streaming object/array
 * builder that handles separators, escaping (control bytes and
 * non-ASCII bytes become \u00XX, so garbage input still yields valid
 * JSON) and number formatting (doubles round-trip exactly) — a
 * document built with it is well-formed JSON by construction (the
 * test_robustness fuzz suite re-parses every triqd reply with this
 * same parser to enforce that).
 */

#ifndef TRIQ_COMMON_JSON_HH
#define TRIQ_COMMON_JSON_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace triq
{

/** One parsed JSON value (object members keep insertion order). */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member lookup (objects only); nullptr when absent. */
    const JsonValue *find(const std::string &key) const;

    /** Member as string with a fallback (absent or wrong type). */
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;

    /** Member as number with a fallback (absent or wrong type). */
    double getNumber(const std::string &key, double fallback = 0.0) const;

    /** Member as bool with a fallback (absent or wrong type). */
    bool getBool(const std::string &key, bool fallback = false) const;
};

/** Outcome of parseJson: a value or a position + message. */
struct JsonParseResult
{
    bool ok = false;
    JsonValue value;
    std::string error;  //!< First problem found ("" when ok).
    size_t errorAt = 0; //!< Byte offset of the problem.
};

/**
 * Parse one JSON value from `text` (leading/trailing whitespace
 * allowed; trailing garbage is an error). Never throws; recursion is
 * capped at `max_depth` so a deeply nested frame cannot blow the
 * stack.
 */
JsonParseResult parseJson(const std::string &text, int max_depth = 48);

/**
 * Streaming JSON builder. Usage:
 *   JsonWriter w;
 *   w.beginObject().key("id").value("r1").key("ok").value(true);
 *   w.endObject();
 *   send(w.str());
 * Numbers are emitted with enough precision to round-trip doubles;
 * non-finite doubles are emitted as null (JSON has no NaN).
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();
    JsonWriter &key(const std::string &k);
    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(long v);
    JsonWriter &value(int v) { return value(static_cast<long>(v)); }
    JsonWriter &value(bool v);
    /** Re-emit a parsed value (members keep their order). */
    JsonWriter &value(const JsonValue &v);
    JsonWriter &null();
    /**
     * Splice one pre-rendered, complete JSON value (caller vouches for
     * it) — e.g. a request id rendered once and echoed in every reply.
     */
    JsonWriter &raw(const std::string &json);

    const std::string &str() const { return out_; }

  private:
    void separate();

    std::string out_;
    /** true = a value was already written at this nesting level. */
    std::vector<bool> hasItem_{};
    bool pendingKey_ = false;
};

} // namespace triq

#endif // TRIQ_COMMON_JSON_HH
