/**
 * @file
 * Minimal command-line flag parsing shared by the bench and example
 * binaries. Supports `--flag`, `--key=value` and `--key value` forms.
 */

#ifndef MEALIB_COMMON_CLI_HH
#define MEALIB_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mealib {

/** Parsed command line: flags, key/value options and positional args. */
class Cli
{
  public:
    Cli(int argc, const char *const *argv);

    /** @return true if `--name` was passed (with or without a value). */
    bool has(const std::string &name) const;

    /** @return the value of `--name`, or @p def if absent. */
    std::string get(const std::string &name, const std::string &def) const;

    /** @return the integer value of `--name`, or @p def if absent. */
    std::int64_t getInt(const std::string &name, std::int64_t def) const;

    /** @return the double value of `--name`, or @p def if absent. */
    double getDouble(const std::string &name, double def) const;

    /** Every `--name` passed, with its value ("" for bare flags). */
    const std::map<std::string, std::string> &
    options() const
    {
        return options_;
    }

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const { return positional_; }

    /** Program name (argv[0]). */
    const std::string &program() const { return program_; }

  private:
    std::string program_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

} // namespace mealib

#endif // MEALIB_COMMON_CLI_HH
