/**
 * @file
 * The command-line flags that set SimConfig fields, as one table:
 * morrigan-sim parses them and prints their usage lines from it, and
 * jobReproCommand() (sim/supervisor.hh) writes a job's configuration
 * back out through it, so the three cannot drift apart.
 */

#ifndef MORRIGAN_SIM_CONFIG_FLAGS_HH
#define MORRIGAN_SIM_CONFIG_FLAGS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sim_config.hh"

namespace morrigan
{

/** One flag: its spelling, usage line, field and accepted values. */
struct ConfigFlag
{
    /** The field, read and written as a number: its value, an enum's
     * index into `names`, or for a switch 1 when it is in effect. */
    struct Field
    {
        std::uint64_t (*get)(const SimConfig &);
        void (*set)(SimConfig &, std::uint64_t);
    };

    const char *flag;  //!< "--pt-depth"
    const char *arg;   //!< value placeholder; nullptr for a switch
    const char *help;
    Field field;
    std::uint64_t min = 0;  //!< accepted numeric values
    std::uint64_t max = 0;
    /** Spellings of an enum value, by index; empty for numbers. */
    std::vector<std::string> names{};
};

/** Every flag, in usage() order. */
const std::vector<ConfigFlag> &configFlags();

/** The row for @p flag, or nullptr. */
const ConfigFlag *findConfigFlag(std::string_view flag);

/** Set @p f's field in @p cfg from @p value (ignored by a switch).
 * Returns an error message naming the flag, or "" on success. */
std::string applyConfigFlag(SimConfig &cfg, const ConfigFlag &f,
                            const char *value);

/** The value to pass to @p f to set its field as in @p cfg ("" for a
 * switch), or nullopt when @p cfg holds SimConfig{}'s value. */
std::optional<std::string> configFlagValue(const ConfigFlag &f,
                                           const SimConfig &cfg);

/**
 * Validated integer value of a flag or environment variable @p what:
 * fatal() on a missing or non-digit start, trailing junk, or a value
 * outside [@p min, @p max], never a silent 0.
 */
std::uint64_t parseU64OrDie(const std::string &what, const char *s,
                            std::uint64_t min, std::uint64_t max);

} // namespace morrigan

#endif // MORRIGAN_SIM_CONFIG_FLAGS_HH
