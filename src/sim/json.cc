#include "json.hh"

#include <cstdio>
#include <cstdlib>

namespace pciesim
{

namespace json
{

double
Value::numberOr(const std::string &key, double fallback) const
{
    const Value *v = find(key);
    return (v && v->type == Type::Number) ? v->number : fallback;
}

std::string
Value::stringOr(const std::string &key,
                const std::string &fallback) const
{
    const Value *v = find(key);
    return (v && v->type == Type::String) ? v->str : fallback;
}

const char *
Value::typeName() const
{
    switch (type) {
      case Type::Null:
        return "null";
      case Type::Bool:
        return "bool";
      case Type::Number:
        return "number";
      case Type::String:
        return "string";
      case Type::Array:
        return "array";
      case Type::Object:
      default:
        return "object";
    }
}

namespace
{

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** A string byte that stands for itself: no quote, backslash or
 *  control character. */
bool
plainStringChar(char c)
{
    return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
}

/** Value of hex digit @p c, or -1. */
int
hexValue(char c)
{
    if (isDigit(c))
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/**
 * Recursive-descent reader over one document. Tracks the current
 * line so syntax errors (here) and callers' semantic errors (via
 * Value::line) both carry a line number. A syntax error unwinds
 * the descent as a thrown Error, caught in parse().
 */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parse()
    {
        Value root = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters after the document");
        return root;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw Error{line_, what};
    }

    /** Skip the four RFC 8259 whitespace bytes, counting lines. */
    void
    skipSpace()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '\n')
                ++line_;
            else if (c != ' ' && c != '\t' && c != '\r')
                break;
            ++pos_;
        }
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c, const char *what)
    {
        if (peek() != c)
            fail(what);
        ++pos_;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::char_traits<char>::length(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Value
    parseValue()
    {
        char c = peek();
        Value v;
        v.line = line_;
        if (c == '{')
            parseObject(v);
        else if (c == '[')
            parseArray(v);
        else if (c == '"') {
            v.type = Value::Type::String;
            v.str = parseString();
        } else if (c == '-' || isDigit(c)) {
            parseNumber(v);
        } else if (literal("true")) {
            v.type = Value::Type::Bool;
            v.boolean = true;
        } else if (literal("false")) {
            v.type = Value::Type::Bool;
            v.boolean = false;
        } else if (literal("null")) {
            v.type = Value::Type::Null;
        } else {
            fail("unexpected character");
        }
        return v;
    }

    void
    parseObject(Value &out)
    {
        out.type = Value::Type::Object;
        expect('{', "expected '{'");
        if (peek() == '}') {
            ++pos_;
            return;
        }
        while (true) {
            if (peek() != '"')
                fail("expected object key");
            unsigned key_line = line_;
            std::string key = parseString();
            if (out.find(key) != nullptr) {
                line_ = key_line;
                fail("duplicate key '" + key + "'");
            }
            expect(':', "expected ':' after object key");
            out.obj.emplace_back(std::move(key), parseValue());
            char c = peek();
            ++pos_;
            if (c == '}')
                return;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    void
    parseArray(Value &out)
    {
        out.type = Value::Type::Array;
        expect('[', "expected '['");
        if (peek() == ']') {
            ++pos_;
            return;
        }
        while (true) {
            out.arr.push_back(parseValue());
            char c = peek();
            ++pos_;
            if (c == ']')
                return;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    std::string
    parseString()
    {
        expect('"', "expected '\"'");
        std::string out;
        while (pos_ < text_.size()) {
            std::size_t run = pos_;
            while (run < text_.size() && plainStringChar(text_[run]))
                ++run;
            out.append(text_, pos_, run - pos_);
            if (run == text_.size())
                break;
            pos_ = run + 1;
            char c = text_[run];
            if (c == '"')
                return out;
            if (c == '\n')
                fail("unterminated string");
            if (c != '\\')
                fail("raw control character in string");
            if (pos_ >= text_.size())
                fail("unterminated string escape");
            char e = text_[pos_++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                out += e;
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
              case 'u':
                out += parseUnicodeEscape();
                break;
              default:
                fail("bad string escape");
            }
        }
        fail("unterminated string");
    }

    /** The XXXX of a \uXXXX escape; non-ASCII folds to '?'. */
    char
    parseUnicodeEscape()
    {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            int digit = pos_ < text_.size() ? hexValue(text_[pos_]) : -1;
            if (digit < 0)
                fail("bad \\u escape");
            code = code * 16 + static_cast<unsigned>(digit);
            ++pos_;
        }
        return code < 0x80 ? static_cast<char>(code) : '?';
    }

    /** Consume a run of digits; false if there was none. */
    bool
    digits()
    {
        std::size_t start = pos_;
        while (pos_ < text_.size() && isDigit(text_[pos_]))
            ++pos_;
        return pos_ > start;
    }

    void
    parseNumber(Value &out)
    {
        std::size_t start = pos_;
        if (text_[pos_] == '-')
            ++pos_;
        std::size_t int_start = pos_;
        if (!digits())
            fail("bad number");
        if (text_[int_start] == '0' && pos_ - int_start > 1)
            fail("bad number (leading zero)");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (!digits())
                fail("bad number fraction");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (!digits())
                fail("bad number exponent");
        }
        out.type = Value::Type::Number;
        // The token is valid JSON, so strtod stops exactly at its end
        // or at a byte that the caller then rejects.
        out.number = std::strtod(text_.c_str() + start, nullptr);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    unsigned line_ = 1;
};

} // namespace

bool
parse(const std::string &text, Value &out, Error &err)
{
    try {
        out = Parser(text).parse();
    } catch (Error &e) {
        err = std::move(e);
        return false;
    }
    return true;
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
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
    return out;
}

} // namespace json

} // namespace pciesim
