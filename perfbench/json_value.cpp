#include "json_value.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace perfbench {

namespace {

class Reader
{
  public:
    explicit Reader(std::string_view text) : text_(text) {}

    JsonValue
    document()
    {
        JsonValue value = parseValue(0);
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters");
        return value;
    }

  private:
    static constexpr int kMaxDepth = 64;

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw JsonError("json: " + what + " at byte " + std::to_string(pos_));
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\r' || text_[pos_] == '\t'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    expect(char c)
    {
        if (!consume(c))
            fail(std::string("expected '") + c + "'");
    }

    void
    keyword(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            fail("bad literal");
        pos_ += word.size();
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            default: fail("unsupported escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        const std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        JsonValue value;
        value.kind = JsonValue::Kind::Number;
        value.number = std::strtod(token.c_str(), &end);
        if (token.empty() || end != token.c_str() + token.size())
            fail("bad number");
        return value;
    }

    JsonValue
    parseValue(int depth)
    {
        if (depth > kMaxDepth)
            fail("nesting too deep");
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end");
        JsonValue value;
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            value.kind = JsonValue::Kind::Object;
            if (consume('}'))
                return value;
            do {
                skipSpace();
                std::string key = parseString();
                expect(':');
                value.object[std::move(key)] = parseValue(depth + 1);
            } while (consume(','));
            expect('}');
        } else if (c == '[') {
            ++pos_;
            value.kind = JsonValue::Kind::Array;
            if (consume(']'))
                return value;
            do {
                value.array.push_back(parseValue(depth + 1));
            } while (consume(','));
            expect(']');
        } else if (c == '"') {
            value.kind = JsonValue::Kind::String;
            value.string = parseString();
        } else if (c == 't' || c == 'f') {
            value.kind = JsonValue::Kind::Bool;
            value.boolean = c == 't';
            keyword(value.boolean ? "true" : "false");
        } else if (c == 'n') {
            keyword("null");
        } else {
            value = parseNumber();
        }
        return value;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

void
write(const JsonValue &value, std::string &out)
{
    switch (value.kind) {
    case JsonValue::Kind::Null: out += "null"; return;
    case JsonValue::Kind::Bool: out += value.boolean ? "true" : "false"; return;
    case JsonValue::Kind::Number: {
        char buffer[32];
        if (value.number == std::floor(value.number) &&
            std::fabs(value.number) < 1e15)
            std::snprintf(buffer, sizeof(buffer), "%lld",
                          static_cast<long long>(value.number));
        else
            std::snprintf(buffer, sizeof(buffer), "%.17g", value.number);
        out += buffer;
        return;
    }
    case JsonValue::Kind::String: out += quoteJson(value.string); return;
    case JsonValue::Kind::Array:
        out += '[';
        for (std::size_t i = 0; i < value.array.size(); ++i) {
            if (i > 0)
                out += ',';
            write(value.array[i], out);
        }
        out += ']';
        return;
    case JsonValue::Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto &[key, member] : value.object) {
            if (!first)
                out += ',';
            first = false;
            out += quoteJson(key);
            out += ':';
            write(member, out);
        }
        out += '}';
        return;
    }
    }
}

} // namespace

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (kind != Kind::Object)
        throw JsonError("json: expected an object holding '" + key + "'");
    const auto it = object.find(key);
    if (it == object.end())
        throw JsonError("json: missing key '" + key + "'");
    return it->second;
}

JsonValue &
JsonValue::at(const std::string &key)
{
    return const_cast<JsonValue &>(std::as_const(*this).at(key));
}

const JsonValue &
JsonValue::at(std::size_t index) const
{
    const auto &list = items();
    if (index >= list.size())
        throw JsonError("json: index " + std::to_string(index) +
                        " out of range");
    return list[index];
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (kind != Kind::Array)
        throw JsonError("json: expected an array");
    return array;
}

long long
JsonValue::asInt() const
{
    if (kind != Kind::Number || number != std::floor(number) ||
        std::fabs(number) > 9e15)
        throw JsonError("json: expected an integer");
    return static_cast<long long>(number);
}

std::size_t
JsonValue::asIndex() const
{
    const long long value = asInt();
    if (value < 0)
        throw JsonError("json: expected a non-negative integer");
    return static_cast<std::size_t>(value);
}

const std::string &
JsonValue::asString() const
{
    if (kind != Kind::String)
        throw JsonError("json: expected a string");
    return string;
}

JsonValue
parseJson(std::string_view text)
{
    return Reader(text).document();
}

std::string
writeJson(const JsonValue &value)
{
    std::string out;
    write(value, out);
    return out;
}

std::string
quoteJson(std::string_view text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

} // namespace perfbench
