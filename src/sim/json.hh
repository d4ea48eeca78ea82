/**
 * @file
 * The tree's one JSON reader and string escaper. It reads topology
 * files, stats.json dumps, Chrome traces and one-object-per-line
 * bench records; every value remembers the 1-based source line it
 * started on, and a syntax error comes back as {line, what} rather
 * than a fatal(), so each caller words the failure for its own
 * input. Built as the dependency-free pciesim_json target, which
 * the offline tools link without the simulator.
 */

#ifndef PCIESIM_SIM_JSON_HH
#define PCIESIM_SIM_JSON_HH

#include <string>
#include <utility>
#include <vector>

namespace pciesim
{

namespace json
{

/**
 * One parsed JSON value. Objects keep insertion order so callers
 * can walk them in document order; duplicate keys within one object
 * are a parse error.
 */
struct Value
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> arr;
    std::vector<std::pair<std::string, Value>> obj;
    /** 1-based line of the value's first character (0: synthetic). */
    unsigned line = 0;

    /** Key lookup on an object; null when absent. */
    const Value *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : obj) {
            if (k == key)
                return &v;
        }
        return nullptr;
    }

    /** The number under @p key, or @p fallback if absent/not one. */
    double numberOr(const std::string &key, double fallback) const;

    /** The string under @p key, or @p fallback if absent/not one. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    const char *typeName() const;
};

/** A syntax error: the 1-based line it was found on, and why. */
struct Error
{
    unsigned line = 0;
    std::string what;
};

/**
 * Parse @p text as one RFC 8259 JSON document into @p out. On a
 * syntax error return false with @p err set. `\uXXXX` escapes
 * outside ASCII fold to '?': everything the simulator writes is
 * ASCII.
 */
bool parse(const std::string &text, Value &out, Error &err);

/**
 * Escape @p s for the inside of a JSON string literal (no quotes
 * added): '"' and '\\' are backslashed, newline and tab become \n
 * and \t, and other control characters become \u00XX.
 */
std::string escape(const std::string &s);

} // namespace json

} // namespace pciesim

#endif // PCIESIM_SIM_JSON_HH
