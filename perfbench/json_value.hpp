/**
 * @file
 * A minimal JSON document model for the benchmark's output checker.
 *
 * The checker must read the ISA JSON the `powermove` CLI emits without
 * trusting the compiler's own code, so it parses the bytes with this
 * small independent reader. The writer exists for the mutation test,
 * which edits a parsed document and re-serializes it.
 */

#ifndef PERFBENCH_JSON_VALUE_HPP
#define PERFBENCH_JSON_VALUE_HPP

#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** Thrown on malformed JSON or a document of the wrong shape. */
class JsonError : public std::runtime_error
{
  public:
    explicit JsonError(const std::string &what) : std::runtime_error(what) {}
};

/** One JSON value. Numbers are kept as doubles. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    /** Member @p key of an object; throws JsonError if absent. */
    const JsonValue &at(const std::string &key) const;
    JsonValue &at(const std::string &key);
    /** Element @p index of an array; throws JsonError if out of range. */
    const JsonValue &at(std::size_t index) const;

    /** The array; throws JsonError for any other kind. */
    const std::vector<JsonValue> &items() const;
    /** The number as a non-negative integer; throws JsonError otherwise. */
    std::size_t asIndex() const;
    /** The number as a (possibly negative) integer. */
    long long asInt() const;
    /** The string; throws JsonError for any other kind. */
    const std::string &asString() const;
};

/** Parses one complete JSON document; throws JsonError. */
JsonValue parseJson(std::string_view text);

/** Serializes @p value compactly (object keys in sorted order). */
std::string writeJson(const JsonValue &value);

/** @p text as a JSON string literal, quotes included. */
std::string quoteJson(std::string_view text);

} // namespace perfbench

#endif // PERFBENCH_JSON_VALUE_HPP
