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
#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_map>

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

/**
 * A string already rendered by appendString, quotes included. Only
 * EscapeCache makes one, so a pre-escaped key or value has still
 * been through the one escape rule; Writer copies it verbatim.
 */
class Escaped
{
  public:
    std::string_view text() const { return text_; }

  private:
    friend class EscapeCache;
    explicit Escaped(std::string_view text) : text_(text) {}

    std::string_view text_;
};

/**
 * Lookup-only memo of appendString over NUL-terminated literals,
 * keyed by address: a streamed export escapes each distinct name
 * once instead of once per row. Escaped values stay valid while the
 * cache lives. The cache is never iterated, so its address keys
 * cannot reach any output order.
 */
class EscapeCache
{
  public:
    Escaped operator()(const char *literal);

  private:
    std::unordered_map<const char *, std::string> memo_;
};

/** A member key: a literal escaped on the spot, an Escaped one, or
 * nullptr for an array element or the top-level value. */
class Key
{
  public:
    Key(const char *literal) : literal_(literal) {}
    Key(Escaped escaped) : escaped_(escaped.text()) {}

  private:
    friend class Writer;
    const char *literal_ = nullptr;
    std::string_view escaped_;
};

/** Pretty: `"key": value`, one per line, two-space indent.
 * Compact: `{"key":value}`. */
enum class Layout { Pretty, Compact };

/**
 * Ordered builder appending to a caller-owned buffer: keys appear
 * exactly as emitted. Every value method takes the member Key, or
 * nullptr for an array element or the top-level value.
 */
class Writer
{
  public:
    explicit Writer(std::string &out, Layout layout = Layout::Pretty)
        : out_(out), pretty_(layout == Layout::Pretty)
    {
    }

    /** A compact writer adding members to an object the caller has
     * already opened and given at least one member (a pre-rendered
     * row prefix); close() ends that object. */
    static Writer
    inObject(std::string &out)
    {
        Writer w(out, Layout::Compact);
        w.depth_ = 1;
        w.first_ = false;
        return w;
    }

    void open(Key key = nullptr) { begin(key, '{'); }
    void close() { end('}'); }
    void openList(Key key = nullptr) { begin(key, '['); }
    void closeList() { end(']'); }

    void str(Key key, std::string_view v)
    { pad(key); appendString(out_, v); }

    void str(Key key, Escaped v)
    { pad(key); out_ += v.text(); }

    void boolean(Key key, bool v)
    { pad(key); out_ += v ? "true" : "false"; }

    void num(Key key, double v)
    { pad(key); appendShortest(out_, v); }

    template <std::integral T>
        requires(!std::same_as<T, bool>)
    void num(Key key, T v)
    {
        pad(key);
        if constexpr (std::signed_integral<T>)
            appendInt(out_, v);
        else
            appendUint(out_, v);
    }

    void fixed(Key key, double v, int decimals)
    { pad(key); appendFixed(out_, v, decimals); }

    void general(Key key, double v, int digits)
    { pad(key); appendGeneral(out_, v, digits); }

    /** @p v as a "0x..." lowercase hex string (trace async ids). */
    void hex(Key key, std::uint64_t v);

  private:
    void pad(Key key);
    void begin(Key key, char bracket);
    void end(char bracket);

    std::string &out_;
    bool pretty_;
    int depth_ = 0;
    bool first_ = true;
};

/**
 * A text file written in pieces, replacing @p path: the one file-write
 * error path. A failed open or write is sticky — later writes do
 * nothing and close() reports it — so a streamed export can write
 * its chunks and check once.
 */
class TextFile
{
  public:
    explicit TextFile(const std::string &path);
    ~TextFile();
    TextFile(const TextFile &) = delete;
    TextFile &operator=(const TextFile &) = delete;

    bool isOpen() const { return file_ != nullptr; }

    /** Append @p bytes. @return false once the open or any write has
     * failed. */
    bool write(std::string_view bytes);

    /** @return false when the open, any write or the close failed. */
    [[nodiscard]] bool close();

  private:
    std::FILE *file_ = nullptr;
    bool ok_ = false;
};

/** Write @p body to @p path, replacing it. @return false when the
 * open, the full write or the close fails. */
[[nodiscard]] bool writeTextFile(const std::string &path,
                                 std::string_view body);

} // namespace neu10::json

#endif // NEU10_COMMON_JSON_HH
