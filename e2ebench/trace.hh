/**
 * @file
 * The benchmark's own span recorder. Spans are recorded from the
 * benchmark's files around calls into the TriQ libraries' public
 * functions, never from inside the libraries.
 *
 * Every span carries the id of the op (cell, compile or request) it
 * belongs to, its start and duration on one steady clock, and its
 * nesting depth inside the op. Spans stay in memory and are written as
 * Chrome trace-event JSON when the run ends (chrome://tracing or
 * Perfetto open the file offline).
 *
 * With tracing off a scope costs one branch, except for the delay
 * injection the gate self-test uses: a named layer can be made slower
 * by a fixed busy-wait inside its wrapper, in traced and untraced runs
 * alike, so a regression in that layer can be staged without touching
 * the libraries.
 */
#ifndef E2EBENCH_TRACE_HH
#define E2EBENCH_TRACE_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace e2e
{

using Clock = std::chrono::steady_clock;

/** Microseconds since the first call in this process. */
double nowUs();

/** Busy-wait for `us` microseconds (a delay that shows as CPU time). */
void spinUs(double us);

/** One recorded interval. */
struct Span
{
    std::string name;
    long op = 0;       //!< Op id shared by every span of one op.
    int depth = 0;     //!< 0 = the op itself, 1 = layer call, 2 = pass.
    int tid = 0;       //!< Trace lane (see README.md: span layout).
    double startUs = 0.0;
    double durUs = 0.0;
};

class Recorder
{
  public:
    /** RAII span: records [construction, destruction) when on. */
    class Scope
    {
      public:
        Scope(Recorder &r, const char *name, long op, int depth);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Recorder &r_;
        const char *name_;
        long op_;
        int depth_;
        double start_ = 0.0;
    };

    /** Span recording on/off; delay injection works either way. */
    bool on = false;

    /**
     * Lane (Chrome trace tid) scopes record on: 0 = the op itself,
     * 1 = standalone probes outside any op's wall time.
     */
    int lane = 0;

    /** Layer whose wrapper spins `injectUs` per call ("" = none). */
    std::string injectLayer;
    double injectUs = 0.0;

    Scope scope(const char *name, long op, int depth = 1)
    {
        return Scope(*this, name, op, depth);
    }

    /** Record an interval measured elsewhere (no-op when off). */
    void add(const std::string &name, long op, int depth, double start_us,
             double dur_us, int tid = 0);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Write the spans of ops below `max_op` as Chrome trace-event JSON
     * (the cap keeps files of fast workloads small).
     */
    bool writeChrome(const std::string &path, long max_op = 5000) const;

    /**
     * Self time per span name over the spans of one lane, summed over
     * all ops: a span's duration minus the part covered by its direct
     * children (the spans of the same op and lane one level deeper
     * that start inside it).
     */
    std::map<std::string, double> selfTimeUs(int lane) const;

    /**
     * Per-op wall time of the depth-0 span and the sum of the self
     * times of every span of that op, for ops with a depth-0 span.
     */
    struct OpCoverage
    {
        double wallUs = 0.0;
        double selfSumUs = 0.0;
    };
    std::map<long, OpCoverage> coverage() const;

  private:
    std::vector<Span> spans_;
};

/** Percentile (0..100) of `v` by linear interpolation; 0 when empty. */
double percentile(std::vector<double> v, double p);

} // namespace e2e

#endif // E2EBENCH_TRACE_HH
