/**
 * @file
 * Declarative command-line flags shared by every binary, and the one
 * reader of the library's environment variables.
 *
 * A binary declares one Flag row per knob: name, type, default, range
 * or choices, help text and the run modes that read it. FlagTable
 * derives everything else from the rows: the parse (`--flag`,
 * `--key=value`, `--key value`), the type and range checks, whether a
 * flag applies to the chosen run, and the `--help` text. An unknown,
 * inapplicable, repeated or malformed flag is an InvalidArgument, and
 * parseOrExit() turns it into exit code 2: a knob either takes effect
 * or is rejected.
 *
 * Environment variables obey the same rule: unset or empty means the
 * row's default, a set but invalid value is an InvalidArgument naming
 * the variable, the value and the accepted values.
 */

#ifndef MEALIB_COMMON_CLI_HH
#define MEALIB_COMMON_CLI_HH

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.hh"

namespace mealib {

enum class FlagType
{
    Bool,
    Int,
    Real,
    String,
    Choice,
    IntList
};

/** Bit set of the run modes a flag applies to. */
using ModeSet = unsigned;
constexpr ModeSet kAnyMode = ~0u;

/**
 * One declared flag (or environment variable):
 * `{"stacks", FlagType::Int, "1", "memory stacks", 1, 1024}`. The
 * default is the text a user would pass; Choice rows list their values
 * after the (unused) range.
 */
struct Flag
{
    Flag(std::string name, FlagType type, std::string def,
         std::string help, double lo = -HUGE_VAL, double hi = HUGE_VAL,
         std::vector<std::string> choices = {})
        : name(std::move(name)), type(type), def(std::move(def)),
          help(std::move(help)), lo(lo), hi(hi), choices(std::move(choices))
    {
    }

    std::string name; //!< spelled `--name`
    FlagType type;
    std::string def; //!< default, as the text a user would pass
    std::string help;
    double lo, hi; //!< inclusive range of Int/Real/IntList values
    std::vector<std::string> choices; //!< accepted Choice values
    ModeSet modes = kAnyMode;         //!< run modes that read the flag
    std::string env; //!< environment variable behind the default, if any

    /** This row, read only by the run modes in @p m. */
    Flag in(ModeSet m) const;

    /** InvalidArgument unless @p value is acceptable for this row. */
    Status check(const std::string &value) const;
};

/** The environment variables the library reads. */
enum class Env
{
    NumThreads,   //!< MEALIB_NUM_THREADS
    Simd,         //!< MEALIB_SIMD
    Machine,      //!< MEALIB_MACHINE
    OffloadPolicy //!< MEALIB_OFFLOAD_POLICY
};

/** The row declaring @p var: accepted values, default and help. */
const Flag &envFlag(Env var);

/** @p name's row with its checks and default backed by @p var. */
Flag envBackedFlag(std::string name, Env var, std::string help);

/**
 * Value of the environment variable behind @p row (row.env): unset or
 * empty yields row.def; a set value must pass row.check(), else this
 * throws MealibError(InvalidArgument).
 */
std::string envValue(const Flag &row);

class FlagTable;

/** Flag values parsed from one command line, already validated. */
class Flags
{
  public:
    bool given(const Flag &f) const { return values_.count(f.name) != 0; }
    bool
    on(const Flag &f) const
    {
        value(f, FlagType::Bool); // checks the row's type
        return given(f);
    }
    std::int64_t
    integer(const Flag &f) const
    {
        return std::strtoll(value(f, FlagType::Int).c_str(), nullptr, 0);
    }
    double
    real(const Flag &f) const
    {
        return std::strtod(value(f, FlagType::Real).c_str(), nullptr);
    }
    /** String and Choice rows. */
    const std::string &
    text(const Flag &f) const
    {
        return value(f, FlagType::String);
    }
    std::vector<std::int64_t> ints(const Flag &f) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const { return positional_; }
    const std::string &program() const { return program_; }

    /** InvalidArgument naming the first given flag @p mode ignores. */
    void requireMode(ModeSet mode) const;

  private:
    friend class FlagTable;
    const std::string &value(const Flag &f, FlagType type) const;

    const FlagTable *table_ = nullptr;
    std::string program_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

/** A binary's flag rows, plus what --help says around them. */
class FlagTable
{
  public:
    /**
     * @p usage follows the program name on the usage line, @p summary
     * opens --help, at most @p maxPositional plain arguments are
     * accepted, and @p modeNames name the run modes (bit i of a
     * ModeSet) in messages.
     */
    explicit FlagTable(std::string summary, std::string usage = "",
                       std::size_t maxPositional = 0,
                       std::vector<std::string> modeNames = {});

    /** Declare @p row; the reference stays valid for the table's life. */
    const Flag &add(Flag row);

    /** Parse @p argv and check the environment; throws MealibError. */
    Flags parse(int argc, const char *const *argv) const;

    /**
     * parse(), then requireMode(@p mode(flags)) when a mode selector is
     * given. --help prints help() and exits 0; a bad flag or
     * environment variable prints the error and exits 2.
     */
    Flags parseOrExit(
        int argc, const char *const *argv,
        const std::function<ModeSet(const Flags &)> &mode = {}) const;

    /** The --help text: usage, summary and one entry per row. */
    std::string help(const std::string &program) const;

  private:
    friend class Flags;
    const Flag *find(const std::string &name) const;
    std::string modeNames(ModeSet modes) const;

    std::string summary_;
    std::string usage_;
    std::size_t maxPositional_;
    std::vector<std::string> modeNames_;
    std::deque<Flag> rows_;
};

} // namespace mealib

#endif // MEALIB_COMMON_CLI_HH
