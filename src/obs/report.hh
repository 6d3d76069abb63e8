/**
 * @file
 * End-of-run report rendering from observability artifacts.
 *
 * `recperf report` turns the machine-readable artifacts a run leaves
 * behind (--metrics-out JSON, --trace-out Chrome trace, and
 * --timeseries-out JSONL) back into the paper's tables: latency
 * percentiles (Fig 11), the operator cycle breakdown (Fig 4/7),
 * per-level cache MPKI (Fig 5), and a roofline placement per operator
 * kind (Fig 2). Every input is optional — sections render only when
 * the artifact that feeds them is present.
 *
 * The JSON reader is a deliberately small recursive-descent parser for
 * the subset our own writers emit (objects, arrays, strings, numbers,
 * booleans, null); it is exposed here so tests can parse artifacts too.
 * The writers share the text helpers declared next to it.
 */

#ifndef RECPERF_OBS_REPORT_HH
#define RECPERF_OBS_REPORT_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace recperf {
namespace obs {

/** One parsed JSON value (object keys keep document order). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    /** Member lookup on an object; nullptr when absent or not one. */
    const JsonValue *find(const std::string &key) const;

    /** number for Number, 0 otherwise (with @p fallback override). */
    double asNumber(double fallback = 0.0) const
    {
        return kind == Kind::Number ? number : fallback;
    }
};

/**
 * Parse @p text into @p out. Returns false and fills @p error (with a
 * byte offset) on malformed input; @p out is unspecified then.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &error);

/** @p s escaped for the inside of a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** @p v as a JSON number with nine significant digits ("%.9g"). */
std::string jsonNumber(double v);

/**
 * Write @p text to @p path; on failure print "<who>: cannot open <path>
 * for writing" to stderr and return false.
 */
bool writeTextFile(const std::string &path, const std::string &text,
                   const char *who);

/** Inputs to renderReport; empty strings mean "artifact not given". */
struct ReportInputs
{
    std::string metricsJson;     ///< --metrics-out contents
    std::string traceJson;       ///< --trace-out contents
    std::string timeseriesJsonl; ///< --timeseries-out contents
};

/**
 * Render the human-readable run report. Returns the report text; on a
 * malformed artifact returns an empty string and fills @p error.
 */
std::string renderReport(const ReportInputs &inputs, std::string &error);

} // namespace obs
} // namespace recperf

#endif // RECPERF_OBS_REPORT_HH
