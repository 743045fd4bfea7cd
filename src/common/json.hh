/**
 * @file
 * The one JSON writer. Scenario results, Chrome traces, metrics dumps
 * and bench records all render here, so they share one number format
 * (locale- and host-independent), one RFC 8259 string escape,
 * one file-write error path and one non-finite policy: JSON has no
 * infinity or NaN literal, so a non-finite double panics, and a
 * caller with a documented sentinel (the trace's kCyclesInf -> -1)
 * maps it first.
 */

#ifndef NEU10_COMMON_JSON_HH
#define NEU10_COMMON_JSON_HH

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>

namespace neu10::json
{

// Scalars, appended to @p out.
void appendUint(std::string &out, std::uint64_t v);
void appendInt(std::string &out, std::int64_t v);
/** Shortest decimal that reads back as @p v. */
void appendShortest(std::string &out, double v);
/** @p decimals digits after the point, as printf %.Nf. */
void appendFixed(std::string &out, double v, int decimals);
/** @p digits significant digits, as printf %.Ng. */
void appendGeneral(std::string &out, double v, int digits);
/** Quoted, with `"`, `\` and every byte below 0x20 escaped. */
void appendString(std::string &out, std::string_view s);

/** Pretty: `"key": value`, one per line, two-space indent.
 * Compact: `{"key":value}`. */
enum class Layout { Pretty, Compact };

/**
 * Ordered builder appending to a caller-owned buffer: keys appear
 * exactly as emitted. Every value method takes the member key, or
 * nullptr for an array element or the top-level value.
 */
class Writer
{
  public:
    explicit Writer(std::string &out, Layout layout = Layout::Pretty)
        : out_(out), pretty_(layout == Layout::Pretty)
    {
    }

    void open(const char *key = nullptr) { begin(key, '{'); }
    void close() { end('}'); }
    void openList(const char *key = nullptr) { begin(key, '['); }
    void closeList() { end(']'); }

    void str(const char *key, std::string_view v)
    { pad(key); appendString(out_, v); }

    void boolean(const char *key, bool v)
    { pad(key); out_ += v ? "true" : "false"; }

    void num(const char *key, double v)
    { pad(key); appendShortest(out_, v); }

    template <std::integral T>
        requires(!std::same_as<T, bool>)
    void num(const char *key, T v)
    {
        pad(key);
        if constexpr (std::signed_integral<T>)
            appendInt(out_, v);
        else
            appendUint(out_, v);
    }

    void fixed(const char *key, double v, int decimals)
    { pad(key); appendFixed(out_, v, decimals); }

    void general(const char *key, double v, int digits)
    { pad(key); appendGeneral(out_, v, digits); }

    /** @p v as a "0x..." lowercase hex string (trace async ids). */
    void hex(const char *key, std::uint64_t v);

  private:
    void pad(const char *key);
    void begin(const char *key, char bracket);
    void end(char bracket);

    std::string &out_;
    bool pretty_;
    int depth_ = 0;
    bool first_ = true;
};

/** Write @p body to @p path, replacing it. @return false when the
 * open, the full write or the close fails. */
[[nodiscard]] bool writeTextFile(const std::string &path,
                                 std::string_view body);

} // namespace neu10::json

#endif // NEU10_COMMON_JSON_HH
