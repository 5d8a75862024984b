/**
 * @file
 * Host-speed reference for the gated end-to-end times.
 *
 * The benchmark runs on shared virtual machines whose speed moves with
 * their neighbours' load. On the host it was defined on, the speed
 * switched between two modes about 1.8x apart, for minutes at a time
 * and for every kind of code, in CPU time as much as in wall time:
 * over ten seeds of compile_grid, raw median latency ranged from 0.080
 * to 0.150 ms (quartile spread 0.50). No choice of workload or
 * statistic removes that, so the serial workloads report their times
 * scaled to a nominal host speed:
 *
 *   reported wall time = measured wall time * kNominalMs / kernel wall
 *   reported CPU time  = measured CPU time  * kNominalMs / kernel CPU
 *
 * where the kernel is a fixed reference computation run on the
 * measuring thread every kPeriodUs between ops. CPU time is scaled by
 * the kernel's own CPU time, so time the host takes away from the
 * virtual CPU (steal), which adds wall time but no CPU time, is not
 * divided out of CPU figures.
 *
 * The kernel (hash-map inserts and a vector sweep) touches only memory
 * of its own, allocated once, so the libraries' heap does not reach it. Each sample runs it twice to warm
 * those buffers and to let the core leave any vector-frequency state the
 * previous op left, then takes the median of three more runs. The scale
 * is the median of the last kWindow samples: the host's speed modes last
 * minutes, while a single sample is noisy enough that, on a calm host,
 * triqd_serial's scaled p99 spread more between runs than its raw p99.
 * Raw times are reported beside the scaled ones.
 */
#ifndef E2EBENCH_SPEED_HH
#define E2EBENCH_SPEED_HH

#include <cstddef>
#include <vector>

namespace e2e
{

class SpeedRef
{
  public:
    /**
     * Kernel duration at nominal host speed: about its duration on the
     * host the benchmark was defined on (a 4-vCPU Xeon virtual machine)
     * in that host's faster mode, so scaled times read close to raw
     * ones there.
     */
    static constexpr double kNominalMs = 0.25;
    static constexpr double kPeriodUs = 50000.0;
    static constexpr size_t kWindow = 9;

    /** Sample when the latest sample is older than kPeriodUs. */
    void tick();

    /** Scales for times measured now (1.0 before the first sample). */
    double wallFactor() const { return wall_; }
    double cpuFactor() const { return cpu_; }

    /** Median wall-time scale over every sample taken. */
    double medianWallFactor() const;

  private:
    void sample();

    double lastUs_ = -1e300;
    double wall_ = 1.0, cpu_ = 1.0;
    std::vector<double> walls_, cpus_; //!< Every sample's scales.
};

} // namespace e2e

#endif // E2EBENCH_SPEED_HH
