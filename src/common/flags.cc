#include "common/flags.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <type_traits>

#include "common/logging.hh"

namespace triq
{

template <typename T>
T
parseNumber(const std::string &where, const std::string &name,
            const std::string &text)
{
    T v{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    bool ok = ec == std::errc() && ptr == end && !text.empty();
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(v);
    if (!ok)
        fatal(where, ": ", name, " needs ",
              std::is_integral_v<T> ? "an integer" : "a number",
              ", got '", text, "'");
    return v;
}

template int parseNumber<int>(const std::string &, const std::string &,
                              const std::string &);
template long parseNumber<long>(const std::string &, const std::string &,
                                const std::string &);
template uint64_t parseNumber<uint64_t>(const std::string &,
                                        const std::string &,
                                        const std::string &);
template double parseNumber<double>(const std::string &,
                                    const std::string &,
                                    const std::string &);

Flags::Spec &
Flags::last()
{
    if (specs_.empty())
        panic("Flags: alias/atLeast before any add");
    return specs_.back();
}

Flags &
Flags::alias(const std::string &name)
{
    last().names.push_back(name);
    return *this;
}

Flags &
Flags::atLeast(double min)
{
    last().min = min;
    return *this;
}

Flags &
Flags::operand(std::string &dst)
{
    operand_ = &dst;
    return *this;
}

std::string
Flags::usage() const
{
    if (!usage_.empty())
        return usage_;
    std::string out = "usage: " + prog_;
    for (const Spec &s : specs_)
        out += " [" + s.names.front() +
               (std::holds_alternative<bool *>(s.dst) ? "" : " V") + "]";
    return out + "\n";
}

void
Flags::parse(int argc, char **argv) const
{
    bool have_operand = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            std::cout << usage();
            std::exit(0);
        }
        auto spec = std::find_if(specs_.begin(), specs_.end(),
                                 [&](const Spec &s) {
                                     return std::find(s.names.begin(),
                                                      s.names.end(),
                                                      arg) != s.names.end();
                                 });
        if (spec == specs_.end()) {
            if (!operand_ || arg.empty() || arg[0] == '-')
                fatal(prog_, ": unknown argument '", arg, "'");
            if (have_operand)
                fatal(prog_, ": unexpected second operand '", arg,
                      "' (already have '", *operand_, "')");
            *operand_ = arg;
            have_operand = true;
            continue;
        }
        if (bool *const *sw = std::get_if<bool *>(&spec->dst)) {
            **sw = true;
            continue;
        }
        if (i + 1 >= argc)
            fatal(prog_, ": ", arg, " needs a value");
        const std::string v = argv[++i];
        std::visit(
            [&](auto *dst) {
                using T = std::remove_pointer_t<decltype(dst)>;
                if constexpr (std::is_same_v<T, std::vector<int>>) {
                    dst->clear();
                    std::stringstream ss(v);
                    std::string tok;
                    while (std::getline(ss, tok, ','))
                        dst->push_back(parseNumber<int>(prog_, arg, tok));
                } else if constexpr (std::is_same_v<
                                         T, std::vector<std::string>>) {
                    dst->push_back(v);
                } else if constexpr (std::is_same_v<T, std::string>) {
                    *dst = v;
                } else if constexpr (!std::is_same_v<T, bool>) {
                    *dst = parseNumber<T>(prog_, arg, v);
                    if (spec->min && *dst < *spec->min)
                        fatal(prog_, ": ", arg, " must be at least ",
                              *spec->min, ", got '", v, "'");
                }
            },
            spec->dst);
    }
}

} // namespace triq
