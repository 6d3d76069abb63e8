#include "core/args.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "core/logging.hh"

namespace recperf {

namespace {

bool
parseInt(const std::string &v, int64_t *out)
{
    char *end = nullptr;
    errno = 0;
    long long parsed = std::strtoll(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || errno == ERANGE)
        return false;
    *out = parsed;
    return true;
}

bool
parseNumber(const std::string &v, double *out)
{
    char *end = nullptr;
    double parsed = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(parsed))
        return false;
    *out = parsed;
    return true;
}

/** "" when @p v is a valid @p type value, else why it is not. */
std::string
checkValue(const std::string &name, const std::string &v, ArgType type)
{
    int64_t i = 0;
    double d = 0.0;
    if (type == ArgType::Int && !parseInt(v, &i))
        return strprintf("--%s expects an integer, got '%s'", name.c_str(),
                         v.c_str());
    if (type == ArgType::Number && !parseNumber(v, &d))
        return strprintf("--%s expects a finite number, got '%s'",
                         name.c_str(), v.c_str());
    return "";
}

} // namespace

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{
}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    RP_ASSERT(!options_.count(name), "duplicate argument --%s",
              name.c_str());
    options_[name] = {"", "", help, ArgType::Text, /*is_flag=*/true,
                      false};
    order_.push_back(name);
}

void
ArgParser::addOption(const std::string &name, const std::string &def,
                     const std::string &help, ArgType type)
{
    RP_ASSERT(!options_.count(name), "duplicate argument --%s",
              name.c_str());
    std::string bad_default = checkValue(name, def, type);
    RP_ASSERT(bad_default.empty(), "default of %s", bad_default.c_str());
    options_[name] = {def, def, help, type, /*is_flag=*/false, false};
    order_.push_back(name);
}

bool
ArgParser::parse(const std::vector<std::string> &args, std::string *error)
{
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.rfind("--", 0) != 0) {
            pos_.push_back(arg);
            continue;
        }

        std::string name = arg.substr(2);
        std::string inline_value;
        bool has_inline = false;
        if (auto eq = name.find('='); eq != std::string::npos) {
            inline_value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_inline = true;
        }

        auto it = options_.find(name);
        if (it == options_.end()) {
            if (error)
                *error = "unknown argument --" + name;
            return false;
        }
        Option &opt = it->second;
        opt.set = true;
        if (opt.is_flag) {
            if (has_inline) {
                if (error)
                    *error = "flag --" + name + " takes no value";
                return false;
            }
            opt.value = "1";
        } else if (has_inline) {
            opt.value = inline_value;
        } else {
            if (i + 1 >= args.size()) {
                if (error)
                    *error = "missing value for --" + name;
                return false;
            }
            opt.value = args[++i];
        }
        std::string bad = checkValue(name, opt.value, opt.type);
        if (!bad.empty()) {
            if (error)
                *error = bad;
            return false;
        }
    }
    return true;
}

bool
ArgParser::flag(const std::string &name) const
{
    auto it = options_.find(name);
    RP_ASSERT(it != options_.end() && it->second.is_flag,
              "unknown flag --%s", name.c_str());
    return it->second.set;
}

const std::string &
ArgParser::option(const std::string &name) const
{
    auto it = options_.find(name);
    RP_ASSERT(it != options_.end() && !it->second.is_flag,
              "unknown option --%s", name.c_str());
    return it->second.value;
}

bool
ArgParser::explicitlySet(const std::string &name) const
{
    auto it = options_.find(name);
    RP_ASSERT(it != options_.end(), "unknown argument --%s",
              name.c_str());
    return it->second.set;
}

int64_t
ArgParser::optionInt(const std::string &name) const
{
    const std::string &v = option(name);
    int64_t parsed = 0;
    if (!parseInt(v, &parsed))
        RP_FATAL("%s", checkValue(name, v, ArgType::Int).c_str());
    return parsed;
}

double
ArgParser::optionDouble(const std::string &name) const
{
    const std::string &v = option(name);
    double parsed = 0.0;
    if (!parseNumber(v, &parsed))
        RP_FATAL("%s", checkValue(name, v, ArgType::Number).c_str());
    return parsed;
}

std::string
ArgParser::helpText() const
{
    std::string out = program_ + " — " + description_ + "\n\noptions:\n";
    for (const std::string &name : order_) {
        const Option &opt = options_.at(name);
        if (opt.is_flag) {
            out += strprintf("  --%-18s %s\n", name.c_str(),
                             opt.help.c_str());
        } else {
            out += strprintf("  --%-18s %s (default: %s)\n",
                             (name + " <v>").c_str(), opt.help.c_str(),
                             opt.def.c_str());
        }
    }
    return out;
}

} // namespace recperf
