/**
 * @file
 * A small reusable worker pool for data-parallel simulation and
 * compilation work.
 *
 * The trajectory executor presamples fixed-size trial chunks and
 * replays slices of fault-pattern groups here; determinism comes from
 * the sharded RNG streams and disjoint per-trial result slots, not
 * from any scheduling property of this pool, so workers are free to
 * steal whatever job is next.
 *
 * Jobs must not themselves submit to the same pool (no nesting); the
 * executor's flat fan-outs never need it.
 *
 * Enqueue granularity matters: submitting N jobs one by one takes N
 * lock acquisitions and N condition-variable signals, which is exactly
 * the per-task overhead the adaptive scheduler (common/sched.hh) is
 * built to amortize. submitBatch() enqueues a whole batch under one
 * lock and wakes the workers once; parallelFor/parallelForRanges are
 * built on it.
 */

#ifndef TRIQ_COMMON_THREAD_POOL_HH
#define TRIQ_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace triq
{

/** Fixed-size worker pool with a blocking wait and error propagation. */
class ThreadPool
{
  public:
    /**
     * Spawn `num_threads` workers. @pre num_threads >= 1.
     * A 1-thread pool still spawns a worker; callers that want a true
     * serial path should simply not construct a pool — the adaptive
     * scheduler (common/sched.hh) makes that decision for them.
     */
    explicit ThreadPool(int num_threads);

    /** Drains remaining jobs, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job. Thread-safe. */
    void submit(std::function<void()> job);

    /**
     * Enqueue every job of `jobs` under a single lock acquisition and
     * wake the workers once (one notify_all instead of N notify_one
     * calls). Jobs are moved, never copied. Thread-safe.
     */
    void submitBatch(std::vector<std::function<void()>> jobs);

    /**
     * Block until every submitted job has finished. If any job threw,
     * rethrows the first exception (by submission-processing order is
     * not guaranteed — one of the thrown exceptions).
     */
    void wait();

    /**
     * Grow the pool to at least `num_threads` workers (no-op when it
     * is already that large). Must be called from the control thread
     * that owns the pool, never from a worker job.
     */
    void ensureWorkers(int num_threads);

    /** Worker count. */
    int size() const { return static_cast<int>(workers_.size()); }

    /** Hardware concurrency with a sane floor of 1. */
    static int hardwareThreads();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allDone_;
    int active_ = 0;
    bool stopping_ = false;
    std::exception_ptr firstError_;
};

/**
 * The process-wide worker pool, created on first use with at least
 * `min_workers` workers (0 = hardware concurrency) and grown on demand.
 * Keeping one pool hot across executeNoisy/runSweep calls amortizes the
 * worker-spawn cost that used to be paid per call; the scheduler checks
 * processPoolStarted() so its cost model only charges the spawn once.
 *
 * The pool's wait() discipline is single-client: fan out from the main
 * thread, wait, fan out again. Concurrent clients would wait on each
 * other's jobs (harmless but slow) — spawn a private ThreadPool for
 * that instead.
 */
ThreadPool &processPool(int min_workers = 0);

/** Whether processPool() has been created yet (its spawn cost is sunk). */
bool processPoolStarted();

/**
 * Run fn(0) .. fn(num_tasks - 1) across the pool and wait for all of
 * them. Exceptions from any task propagate out (first one wins). The
 * batch is enqueued with one submitBatch call.
 */
void parallelFor(ThreadPool &pool, int num_tasks,
                 const std::function<void(int)> &fn);

/**
 * Run fn(lo, hi) over [0, num_items) in contiguous ranges of
 * `items_per_task` items — ceil(num_items / items_per_task) pool tasks
 * — and wait for all of them. This is the batched fan-out the adaptive
 * scheduler plans: each task carries enough items to amortize its
 * dispatch overhead. Exceptions propagate as in parallelFor.
 */
void parallelForRanges(ThreadPool &pool, int num_items, int items_per_task,
                       const std::function<void(int, int)> &fn);

} // namespace triq

#endif // TRIQ_COMMON_THREAD_POOL_HH
