/**
 * @file
 * The five benchmark workloads (see README.md for why each exists).
 */
#ifndef E2EBENCH_WORKLOADS_HH
#define E2EBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace e2e
{

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string root = ".";      //!< Repository checkout (program sources).
    std::string traceOut;        //!< Chrome trace path ("" = none).
    std::string injectLayer;     //!< Self-test: layer wrapper to slow down.
    double injectUs = 0.0;       //!< Self-test: delay per wrapped call.
    bool injectCorrupt = false;  //!< Self-test: corrupt one op's output.
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Result
{
    long attempted = 0;
    long failed = 0;
    /** End-to-end metrics (untraced run) or per-layer ones (traced). */
    std::vector<Metric> metrics;
    /** Sample counts, percentiles and notes (a JSON object). */
    std::string detail;
    /** Digest of every op's outputs; equal seeds give equal digests. */
    std::string outputsDigest;
    /** First correctness failures, for the log. */
    std::vector<std::string> errors;
};

const std::vector<std::string> &workloadNames();

/** Run one workload. @throws triq::FatalError on bad input. */
Result runWorkload(const Options &opts);

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_HH
