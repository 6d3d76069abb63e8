/**
 * @file
 * Minimal command-line argument parsing for the RecPerf tools.
 *
 * Supports boolean flags (--verbose), valued options (--batch 16 or
 * --batch=16), and positional arguments, with generated help text.
 * Options declared as integers or numbers are checked while parsing,
 * so a malformed value is a parse error like an unknown argument.
 */

#ifndef RECPERF_CORE_ARGS_HH
#define RECPERF_CORE_ARGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace recperf {

/** What a valued option accepts; Text options are never checked. */
enum class ArgType { Text, Int, Number };

/** Declarative command-line parser. */
class ArgParser
{
  public:
    explicit ArgParser(std::string program, std::string description);

    /** Register a boolean flag, e.g. "verbose" for --verbose. */
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Register a valued option with a default. An Int option accepts
     * only a whole decimal number and a Number option only a finite
     * real; parse() rejects anything else.
     */
    void addOption(const std::string &name, const std::string &def,
                   const std::string &help, ArgType type = ArgType::Text);

    /**
     * Parse argv (excluding argv[0]).
     * @return true on success; on failure @p error describes the issue.
     */
    bool parse(const std::vector<std::string> &args, std::string *error);

    bool flag(const std::string &name) const;
    const std::string &option(const std::string &name) const;

    /** Whether the user supplied @p name (vs. the default applying).
     *  Lets validation reject combinations only when asked for. */
    bool explicitlySet(const std::string &name) const;
    int64_t optionInt(const std::string &name) const;
    double optionDouble(const std::string &name) const;
    const std::vector<std::string> &positional() const { return pos_; }

    /** Generated usage text. */
    std::string helpText() const;

  private:
    struct Option
    {
        std::string value;
        std::string def;
        std::string help;
        ArgType type = ArgType::Text;
        bool is_flag = false;
        bool set = false;
    };

    std::string program_;
    std::string description_;
    std::vector<std::string> order_;
    std::map<std::string, Option> options_;
    std::vector<std::string> pos_;
};

} // namespace recperf

#endif // RECPERF_CORE_ARGS_HH
