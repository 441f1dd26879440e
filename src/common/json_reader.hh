/**
 * @file
 * Minimal JSON reader shared by the on-disk result cache and the
 * campaign journal.
 *
 * Just enough of the grammar for the flat documents our own writers
 * produce. Numbers keep their raw token so 64-bit counters and
 * %.17g doubles both round-trip exactly; strings are decoded with
 * the same escape set json::writeEscaped() emits. Header-only, no
 * allocation beyond the value tree itself.
 */

#ifndef MORRIGAN_COMMON_JSON_READER_HH
#define MORRIGAN_COMMON_JSON_READER_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace morrigan::json
{

struct Value
{
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    std::string token;  //!< raw text for Number, decoded for String
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    const Value *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class Reader
{
  public:
    explicit Reader(const std::string &text) : s_(text) {}
    /** The reader only borrows @p text; a temporary would dangle. */
    explicit Reader(std::string &&) = delete;

    bool
    parse(Value &out)
    {
        return parseValue(out) && (skipWs(), pos_ == s_.size());
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    parseValue(Value &out)
    {
        skipWs();
        if (pos_ >= s_.size())
            return false;
        char c = s_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out.type = Value::Type::String;
            return parseString(out.token);
        }
        if (c == 't' || c == 'f') {
            const char *word = c == 't' ? "true" : "false";
            if (s_.compare(pos_, std::strlen(word), word) != 0)
                return false;
            pos_ += std::strlen(word);
            out.type = Value::Type::Bool;
            out.boolean = c == 't';
            return true;
        }
        if (c == 'n') {
            if (s_.compare(pos_, 4, "null") != 0)
                return false;
            pos_ += 4;
            out.type = Value::Type::Null;
            return true;
        }
        return parseNumber(out);
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos_ < s_.size()) {
            char c = s_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return false;
                char e = s_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 > s_.size())
                        return false;
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = s_[pos_++];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= h - '0';
                        else if (h >= 'a' && h <= 'f')
                            cp |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F')
                            cp |= h - 'A' + 10;
                        else
                            return false;
                    }
                    // Control characters only; good enough for the
                    // strings our writers escape.
                    out += static_cast<char>(cp & 0xff);
                    break;
                  }
                  default:
                    return false;
                }
            } else {
                out += c;
            }
        }
        return false;
    }

    bool
    parseNumber(Value &out)
    {
        std::size_t start = pos_;
        if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+'))
            ++pos_;
        bool any = false;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E' || s_[pos_] == '-' ||
                s_[pos_] == '+')) {
            ++pos_;
            any = true;
        }
        if (!any)
            return false;
        out.type = Value::Type::Number;
        out.token = s_.substr(start, pos_ - start);
        return true;
    }

    bool
    parseArray(Value &out)
    {
        if (!consume('['))
            return false;
        out.type = Value::Type::Array;
        skipWs();
        if (consume(']'))
            return true;
        for (;;) {
            Value v;
            if (!parseValue(v))
                return false;
            out.array.push_back(std::move(v));
            if (consume(']'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    bool
    parseObject(Value &out)
    {
        if (!consume('{'))
            return false;
        out.type = Value::Type::Object;
        skipWs();
        if (consume('}'))
            return true;
        for (;;) {
            std::string key;
            skipWs();
            if (!parseString(key) || !consume(':'))
                return false;
            Value v;
            if (!parseValue(v))
                return false;
            out.object.emplace_back(std::move(key), std::move(v));
            if (consume('}'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

/** @p v as an unsigned integer: a number token of digits only that
 * fits 64 bits. */
inline bool
toU64(const Value &v, std::uint64_t &out)
{
    if (v.type != Value::Type::Number ||
        !std::isdigit(static_cast<unsigned char>(v.token[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(v.token.c_str(), &end, 10);
    if (errno == ERANGE || *end != '\0')
        return false;
    out = parsed;
    return true;
}

/** Typed field accessors; false when absent or malformed. */
inline bool
getU64(const Value &obj, const char *key, std::uint64_t &out)
{
    const Value *v = obj.find(key);
    return v && toU64(*v, out);
}

inline bool
getDouble(const Value &obj, const char *key, double &out)
{
    const Value *v = obj.find(key);
    if (!v || v->type != Value::Type::Number)
        return false;
    char *end = nullptr;
    double parsed = std::strtod(v->token.c_str(), &end);
    if (*end != '\0')
        return false;
    out = parsed;
    return true;
}

inline bool
getString(const Value &obj, const char *key, std::string &out)
{
    const Value *v = obj.find(key);
    if (!v || v->type != Value::Type::String)
        return false;
    out = v->token;
    return true;
}

/** An array of unsigned integers into a std::array of exactly its
 * length or a std::vector of any; @p out is untouched on failure. */
template <class A>
bool
getU64Array(const Value &obj, const char *key, A &out)
{
    const Value *v = obj.find(key);
    if (!v || v->type != Value::Type::Array)
        return false;
    A parsed{};
    if constexpr (requires { parsed.resize(0); })
        parsed.resize(v->array.size());
    else if (v->array.size() != parsed.size())
        return false;
    for (std::size_t i = 0; i < parsed.size(); ++i)
        if (!toU64(v->array[i], parsed[i]))
            return false;
    out = std::move(parsed);
    return true;
}

} // namespace morrigan::json

#endif // MORRIGAN_COMMON_JSON_READER_HH
