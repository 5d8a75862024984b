#include "speed.hh"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory_resource>
#include <unordered_map>

#include "trace.hh"

namespace e2e
{

namespace
{

volatile double sink;

double
threadCpuUs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) * 1e-3;
}

struct KernelTime
{
    double wallMs, cpuMs;
};

/**
 * One run: 4000 hash-map inserts and a 10000-element vector sweep, the
 * allocation, pointer-chasing and arithmetic mix of the compile path.
 * The map's nodes come from an arena of the kernel's own, so the
 * global heap's state does not reach it.
 */
KernelTime
runKernel()
{
    static std::vector<std::byte> arena(1 << 20);
    static std::vector<double> v(10000);
    const double w0 = nowUs(), c0 = threadCpuUs();
    double acc = 0.0;
    {
        std::pmr::monotonic_buffer_resource pool(
            arena.data(), arena.size(), std::pmr::null_memory_resource());
        std::pmr::unordered_map<long, double> m(&pool);
        for (long i = 0; i < 4000; ++i)
            m[i * 7919 % 100003] += std::sin(static_cast<double>(i));
        for (size_t i = 0; i < v.size(); ++i)
            v[i] = static_cast<double>(i) * 0.5;
        for (double x : v)
            acc += x;
        for (const auto &kv : m)
            acc += kv.second;
    }
    sink = acc;
    return {(nowUs() - w0) / 1e3, (threadCpuUs() - c0) / 1e3};
}

} // namespace

void
SpeedRef::tick()
{
    if (nowUs() - lastUs_ >= kPeriodUs)
        sample();
}

void
SpeedRef::sample()
{
    (void)runKernel();
    (void)runKernel();
    KernelTime k[3];
    for (KernelTime &x : k)
        x = runKernel();
    auto mid = [&](double KernelTime::*f) {
        double v[3] = {k[0].*f, k[1].*f, k[2].*f};
        std::sort(v, v + 3);
        return v[1];
    };
    walls_.push_back(kNominalMs / mid(&KernelTime::wallMs));
    cpus_.push_back(kNominalMs / std::max(mid(&KernelTime::cpuMs), 1e-6));
    const size_t from = walls_.size() - std::min(walls_.size(), kWindow);
    wall_ = percentile({walls_.begin() + from, walls_.end()}, 50.0);
    cpu_ = percentile({cpus_.begin() + from, cpus_.end()}, 50.0);
    lastUs_ = nowUs();
}

double
SpeedRef::medianWallFactor() const
{
    return walls_.empty() ? 1.0 : percentile(walls_, 50.0);
}

} // namespace e2e
