/**
 * @file
 * triq-e2ebench: one end-to-end benchmark for the TriQ stack.
 *
 *   triq-e2ebench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--root DIR] [--trace-out FILE]
 *                 [--inject-delay LAYER=US] [--inject-corrupt]
 *
 * Runs one closed-loop workload (see README.md) for S seconds of
 * measured work, checks every op's output outside the timed region,
 * and prints as its last stdout line one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
 * ones (and writes the Chrome trace to --trace-out). The lines before
 * it carry the machine descriptor and sample details.
 *
 * The --inject-* options exist for the gate self-test (selftest.py):
 * a busy-wait inside one layer's wrapper, or one corrupted output.
 *
 * Exit codes: 0 = run completed and every output was correct, 1 = bad
 * usage or environment, 4 = an output failed its correctness check.
 */
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "service/wire.hh"
#include "workloads.hh"

extern char **environ;

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "triq-e2ebench: " << why
              << "\nusage: triq-e2ebench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--root DIR] [--trace-out FILE] "
                 "[--inject-delay LAYER=US] [--inject-corrupt]\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    e2e::Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                o.workload = need();
            } else if (a == "--seed") {
                o.seed = std::stoull(need());
                have_seed = true;
            } else if (a == "--seconds") {
                o.seconds = std::stod(need());
                have_seconds = true;
            } else if (a == "--trace") {
                const std::string v = need();
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                o.trace = v == "1";
                have_trace = true;
            } else if (a == "--root") {
                o.root = need();
            } else if (a == "--trace-out") {
                o.traceOut = need();
            } else if (a == "--inject-delay") {
                const std::string v = need();
                const size_t eq = v.find('=');
                if (eq == std::string::npos)
                    usage("--inject-delay takes LAYER=US");
                o.injectLayer = v.substr(0, eq);
                o.injectUs = std::stod(v.substr(eq + 1));
            } else if (a == "--inject-corrupt") {
                o.injectCorrupt = true;
            } else {
                usage("unknown argument " + a);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    bool known = false;
    for (const std::string &w : e2e::workloadNames())
        known = known || w == o.workload;
    if (!known)
        usage("unknown workload '" + o.workload + "'");
    if (!have_seed || !have_seconds || !have_trace || !(o.seconds > 0.0))
        usage("--seed, --seconds (> 0) and --trace are required");

    // Measure the defaults users get: no TRIQ_* knob may be set.
    for (char **env = environ; *env; ++env)
        if (std::strncmp(*env, "TRIQ_", 5) == 0) {
            std::cerr << "triq-e2ebench: refusing to run with " << *env
                      << " set (run.py clears every TRIQ_* knob)\n";
            return 1;
        }

    e2e::Result r;
    try {
        r = e2e::runWorkload(o);
    } catch (const std::exception &e) {
        std::cerr << "triq-e2ebench: " << e.what() << "\n";
        return 1;
    }

    triq::JsonWriter d;
    d.beginObject();
    d.key("workload").value(o.workload);
    d.key("seed").value(static_cast<double>(o.seed));
    d.key("seconds").value(o.seconds);
    d.key("trace").value(o.trace);
    d.key("nproc").value(
        static_cast<long>(std::thread::hardware_concurrency()));
    d.key("cpu_model").value(cpuModel());
    d.key("compiler").value(E2E_COMPILER);
    d.key("build_type").value(E2E_BUILD_TYPE);
    d.key("outputs_digest").value(r.outputsDigest);
    d.key("detail").raw(r.detail);
    d.key("errors").beginArray();
    for (const std::string &err : r.errors)
        d.value(err);
    d.endArray().endObject();
    std::cout << "descriptor " << d.str() << "\n";
    for (const std::string &err : r.errors)
        std::cerr << "triq-e2ebench: incorrect output: " << err << "\n";

    const bool correct = r.failed == 0 && r.attempted > 0;
    triq::JsonWriter w;
    w.beginObject();
    w.key("correct").value(correct);
    w.key("attempted").value(r.attempted);
    w.key("failed").value(r.failed);
    w.key("metrics").beginObject();
    for (const e2e::Metric &m : r.metrics) {
        w.key(m.name).beginObject();
        w.key("value").value(m.value).key("unit").value(m.unit);
        w.endObject();
    }
    w.endObject().endObject();
    std::cout << w.str() << std::endl;
    return correct ? 0 : 4;
}
