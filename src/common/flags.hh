/**
 * @file
 * The one command-line parser: triqc, triqd, triq-sweep, triq-loadgen,
 * triq-calgen and every micro bench read their argv through Flags.
 *
 * Each flag binds to a variable that already holds its default;
 * parse() overwrites the variables of the flags it sees. An int, long,
 * double or string flag takes one value; a bool flag is a switch
 * (present = true); a vector<string> flag appends every occurrence; a
 * vector<int> flag takes a comma-separated list that replaces the
 * default. A flag may have extra spellings (alias) and a numeric lower
 * bound (atLeast), and a tool may take one positional operand.
 *
 * Malformed input is fatal (FatalError, so exit 1 under the CLI
 * contract) and names the flag: an unknown flag, a missing value, a
 * malformed or non-finite number, a number below the flag's bound, or
 * a second operand. `-h`/`--help` prints the tool's usage on stdout
 * and exits 0.
 */

#ifndef TRIQ_COMMON_FLAGS_HH
#define TRIQ_COMMON_FLAGS_HH

#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace triq
{

/**
 * Parse all of `text` as a finite number of type T (int, long,
 * uint64_t or double) with std::from_chars: no locale, no leading
 * space or '+', nothing after the number, so "three" is not 0 and
 * "2e3" is not an int. Anything else is a FatalError
 * "<where>: <name> needs an integer|a number, got '<text>'". Flags
 * reads every numeric flag through it, and so does every other
 * key=value reader (crash bundles, sweep manifests).
 */
template <typename T>
T parseNumber(const std::string &where, const std::string &name,
              const std::string &text);

class Flags
{
  public:
    /**
     * @param prog  Tool name prefixed to every error message.
     * @param usage What --help prints ("" = a generated flag list).
     */
    explicit Flags(std::string prog, std::string usage = "")
        : prog_(std::move(prog)), usage_(std::move(usage))
    {
    }

    template <typename T>
    Flags &
    add(const std::string &name, T &dst)
    {
        specs_.push_back({{name}, &dst, std::nullopt});
        return *this;
    }

    /** Another spelling of the flag added last ("-d" for "--device"). */
    Flags &alias(const std::string &name);

    /** Reject a value of the (numeric) flag added last below `min`. */
    Flags &atLeast(double min);

    /** Bind the one positional operand; a second one is fatal. */
    Flags &operand(std::string &dst);

    void parse(int argc, char **argv) const;

  private:
    struct Spec
    {
        std::vector<std::string> names;
        std::variant<int *, long *, double *, std::string *, bool *,
                     std::vector<std::string> *, std::vector<int> *>
            dst;
        std::optional<double> min;
    };

    Spec &last();
    std::string usage() const;

    std::string prog_;
    std::string usage_;
    std::vector<Spec> specs_;
    std::string *operand_ = nullptr;
};

} // namespace triq

#endif // TRIQ_COMMON_FLAGS_HH
