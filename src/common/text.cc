#include "common/text.hh"

#include <charconv>

namespace triq
{

void
appendExact(std::string &out, double v)
{
    // "-2.2250738585072014e-308" is the longest %.17g text: 24 bytes.
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof buf, v,
                             std::chars_format::general, 17);
    out.append(buf, res.ptr);
}

void
appendInt(std::string &out, long v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

void
appendUint(std::string &out, unsigned long long v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

std::string
exactText(double v)
{
    std::string out;
    appendExact(out, v);
    return out;
}

} // namespace triq
