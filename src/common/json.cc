#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"
#include "common/text.hh"

namespace triq
{

namespace
{

/** Escape `s` for a JSON string literal: quotes, backslashes, and
 *  every control or non-ASCII byte (as \u00XX). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20 || c >= 0x7f) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// JsonValue accessors.
// ---------------------------------------------------------------------

const JsonValue *
JsonValue::find(const std::string &k) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[key, val] : members)
        if (key == k)
            return &val;
    return nullptr;
}

std::string
JsonValue::getString(const std::string &k, const std::string &fallback) const
{
    const JsonValue *v = find(k);
    return v && v->isString() ? v->string : fallback;
}

double
JsonValue::getNumber(const std::string &k, double fallback) const
{
    const JsonValue *v = find(k);
    return v && v->isNumber() ? v->number : fallback;
}

bool
JsonValue::getBool(const std::string &k, bool fallback) const
{
    const JsonValue *v = find(k);
    return v && v->isBool() ? v->boolean : fallback;
}

// ---------------------------------------------------------------------
// Parser: recursive descent, no exceptions, bounded depth.
// ---------------------------------------------------------------------

namespace
{

class Parser
{
  public:
    Parser(const std::string &text, int max_depth)
        : text_(text), maxDepth_(max_depth)
    {
    }

    JsonParseResult
    run()
    {
        JsonParseResult res;
        skipWs();
        if (!parseValue(res.value, 0)) {
            res.error = error_;
            res.errorAt = errorAt_;
            return res;
        }
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing garbage after JSON value");
            res.error = error_;
            res.errorAt = errorAt_;
            return res;
        }
        res.ok = true;
        return res;
    }

  private:
    bool
    fail(const std::string &msg)
    {
        // Keep the first (deepest-relevant) failure only.
        if (error_.empty()) {
            error_ = msg;
            errorAt_ = pos_;
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    literal(const char *word)
    {
        size_t n = 0;
        while (word[n])
            ++n;
        if (text_.compare(pos_, n, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > maxDepth_)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
          case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null");
          default:
            if (c == '-' || (c >= '0' && c <= '9')) {
                out.kind = JsonValue::Kind::Number;
                return parseNumber(out.number);
            }
            return fail("unexpected character");
        }
    }

    bool
    parseObject(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
            skipWs();
            JsonValue val;
            if (!parseValue(val, depth + 1))
                return false;
            out.members.emplace_back(std::move(key), std::move(val));
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
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            JsonValue val;
            if (!parseValue(val, depth + 1))
                return false;
            out.array.push_back(std::move(val));
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
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // '"'
        while (pos_ < text_.size()) {
            unsigned char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                if (pos_ + 1 >= text_.size())
                    return fail("unterminated escape");
                char e = text_[pos_ + 1];
                pos_ += 2;
                switch (e) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case '/':
                    out += '/';
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text_[pos_ + i];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= h - '0';
                        else if (h >= 'a' && h <= 'f')
                            code |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F')
                            code |= h - 'A' + 10;
                        else
                            return fail("bad \\u escape digit");
                    }
                    pos_ += 4;
                    // UTF-8 encode the BMP code point (surrogate pairs
                    // are passed through as two separate encodings —
                    // the protocol never needs astral characters).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                continue;
            }
            // Raw control bytes are invalid JSON; rejecting them keeps
            // spliced binary garbage from masquerading as a valid
            // frame (the fault-mode loadgen sends exactly that).
            if (c < 0x20)
                return fail("raw control byte in string");
            out += static_cast<char>(c);
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(double &out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        std::string tok = text_.substr(start, pos_ - start);
        char *end = nullptr;
        out = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size() || tok.empty())
            return fail("malformed number");
        if (!std::isfinite(out))
            return fail("number out of range");
        return true;
    }

    const std::string &text_;
    size_t pos_ = 0;
    int maxDepth_;
    std::string error_;
    size_t errorAt_ = 0;
};

} // namespace

JsonParseResult
parseJson(const std::string &text, int max_depth)
{
    return Parser(text, max_depth).run();
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

void
JsonWriter::separate()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (!hasItem_.empty()) {
        if (hasItem_.back())
            out_ += ", ";
        hasItem_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    hasItem_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (hasItem_.empty())
        panic("JsonWriter: endObject without beginObject");
    hasItem_.pop_back();
    out_ += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    hasItem_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (hasItem_.empty())
        panic("JsonWriter: endArray without beginArray");
    hasItem_.pop_back();
    out_ += ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    separate();
    out_ += '"';
    out_ += jsonEscape(k);
    out_ += '"';
    out_ += ": ";
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    out_ += '"';
    out_ += jsonEscape(v);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    if (!std::isfinite(v)) {
        out_ += "null";
        return *this;
    }
    appendExact(out_, v);
    return *this;
}

JsonWriter &
JsonWriter::value(long v)
{
    separate();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::value(const JsonValue &v)
{
    switch (v.kind) {
      case JsonValue::Kind::Null:
        return null();
      case JsonValue::Kind::Bool:
        return value(v.boolean);
      case JsonValue::Kind::Number:
        return value(v.number);
      case JsonValue::Kind::String:
        return value(v.string);
      case JsonValue::Kind::Array:
        beginArray();
        for (const JsonValue &e : v.array)
            value(e);
        return endArray();
      case JsonValue::Kind::Object:
        beginObject();
        for (const auto &[k, m] : v.members)
            key(k).value(m);
        return endObject();
    }
    panic("JsonWriter: unknown JsonValue kind");
}

JsonWriter &
JsonWriter::null()
{
    separate();
    out_ += "null";
    return *this;
}

JsonWriter &
JsonWriter::raw(const std::string &json)
{
    separate();
    out_ += json;
    return *this;
}

} // namespace triq
