#include "common/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

#include "common/logging.hh"

namespace neu10::json
{

namespace
{

/** to_chars @p v (with an optional format and precision) onto @p out.
 * The buffer fits any finite double at %.17f (309 integer digits);
 * a larger precision trips the overflow check. */
template <typename T, typename... Format>
void
appendChars(std::string &out, T v, Format... format)
{
    if constexpr (std::floating_point<T>)
        NEU10_ASSERT(std::isfinite(v), "non-finite value in JSON output");
    char buf[336];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), v, format...);
    NEU10_ASSERT(r.ec == std::errc{}, "JSON number overflows buffer");
    out.append(buf, r.ptr);
}

} // anonymous namespace

void appendUint(std::string &out, std::uint64_t v) { appendChars(out, v); }
void appendInt(std::string &out, std::int64_t v) { appendChars(out, v); }
void appendShortest(std::string &out, double v) { appendChars(out, v); }

void
appendFixed(std::string &out, double v, int decimals)
{
    appendChars(out, v, std::chars_format::fixed, decimals);
}

void
appendGeneral(std::string &out, double v, int digits)
{
    appendChars(out, v, std::chars_format::general, digits);
}

void
appendString(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out += '"';
    size_t clean = 0; // s[clean, i) needs no escaping
    for (size_t i = 0; i < s.size(); ++i) {
        const auto b = static_cast<unsigned char>(s[i]);
        if (b >= 0x20 && b != '"' && b != '\\')
            continue;
        out.append(s, clean, i - clean);
        clean = i + 1;
        out += '\\';
        if (b == '"' || b == '\\') {
            out += static_cast<char>(b);
        } else if (b >= '\b' && b <= '\r' && b != '\v') {
            out += "btn?fr"[b - '\b']; // \b \t \n \f \r
        } else {
            out += "u00";
            out += kHex[b >> 4];
            out += kHex[b & 0xf];
        }
    }
    out.append(s, clean);
    out += '"';
}

Escaped
EscapeCache::operator()(const char *literal)
{
    const auto [it, fresh] = memo_.try_emplace(literal);
    if (fresh)
        appendString(it->second, literal);
    return Escaped(it->second);
}

void
Writer::pad(Key key)
{
    if (!first_)
        out_ += pretty_ ? ",\n" : ",";
    if (pretty_)
        out_.append(static_cast<size_t>(depth_) * 2, ' ');
    if (key.literal_ != nullptr) {
        appendString(out_, key.literal_);
        out_ += pretty_ ? ": " : ":";
    } else if (!key.escaped_.empty()) {
        out_ += key.escaped_;
        out_ += pretty_ ? ": " : ":";
    }
    first_ = false;
}

void
Writer::begin(Key key, char bracket)
{
    pad(key);
    out_ += bracket;
    if (pretty_)
        out_ += '\n';
    ++depth_;
    first_ = true;
}

void
Writer::end(char bracket)
{
    --depth_;
    if (pretty_) {
        out_ += '\n';
        out_.append(static_cast<size_t>(depth_) * 2, ' ');
    }
    out_ += bracket;
    first_ = false;
}

void
Writer::hex(Key key, std::uint64_t v)
{
    pad(key);
    out_ += "\"0x";
    appendChars(out_, v, 16);
    out_ += '"';
}

TextFile::TextFile(const std::string &path)
    : file_(std::fopen(path.c_str(), "w")), ok_(file_ != nullptr)
{
}

TextFile::~TextFile()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

bool
TextFile::write(std::string_view bytes)
{
    if (ok_)
        ok_ = std::fwrite(bytes.data(), 1, bytes.size(), file_) ==
              bytes.size();
    return ok_;
}

bool
TextFile::close()
{
    if (file_ == nullptr)
        return false;
    const bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    return closed && ok_;
}

bool
writeTextFile(const std::string &path, std::string_view body)
{
    TextFile f(path);
    f.write(body);
    return f.close();
}

} // namespace neu10::json
