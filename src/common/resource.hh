/**
 * @file
 * The process-wide resource governor: a committed-memory budget that
 * every large simulator allocation reserves against *before* touching
 * the allocator, so a request that cannot be afforded fails with a
 * structured, attributable error instead of an OOM kill or a
 * std::bad_alloc abort deep inside a worker thread.
 *
 * The budget comes from TRIQ_MEM_BUDGET ("256M", "2G", plain bytes;
 * 0 = unlimited) or, when the knob is unset, is autodetected from the
 * tightest of the cgroup memory limit (v2 memory.max, v1
 * memory.limit_in_bytes) and /proc/meminfo MemAvailable — the daemon
 * should never promise memory the kernel would kill it for using.
 *
 * Consumers hold reservations through the RAII MemReservation guard;
 * an unaffordable reservation throws ResourceError, which carries the
 * attempted size, the budget and the committed level so every layer
 * (triqc exit 1, triqd `sim.oom` reply, sweep Error cell) can report
 * the same structured facts. See DESIGN.md, "Resource governor".
 */

#ifndef TRIQ_COMMON_RESOURCE_HH
#define TRIQ_COMMON_RESOURCE_HH

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

namespace triq
{

/**
 * A reservation was refused (predicted overrun) or an allocation
 * failed (std::bad_alloc translated at the executor boundary). The
 * numeric fields make the error renderable as a structured `sim.oom`
 * diagnostic at every layer without re-parsing the message.
 */
struct ResourceError : std::runtime_error
{
    ResourceError(const std::string &msg, uint64_t attempted,
                  uint64_t budget, uint64_t committed)
        : std::runtime_error(msg), attemptedBytes(attempted),
          budgetBytes(budget), committedBytes(committed)
    {
    }

    uint64_t attemptedBytes = 0; //!< Bytes the consumer asked for.
    uint64_t budgetBytes = 0;    //!< Budget in force (0 = unlimited).
    uint64_t committedBytes = 0; //!< Already-reserved bytes at refusal.
};

/** Render a byte count like "256.0 MiB" / "1.5 GiB" / "640 B". */
std::string formatBytes(uint64_t bytes);

/** Monotonic counters; read with ResourceGovernor::stats(). */
struct ResourceStats
{
    long reservations = 0;     //!< Successful tryReserve/reserve calls.
    long refusals = 0;         //!< Reservations refused over budget.
    uint64_t committedBytes = 0; //!< Currently reserved.
    uint64_t peakBytes = 0;      //!< High-water mark of committed.
    uint64_t budgetBytes = 0;    //!< Budget in force (0 = unlimited).
};

/**
 * Thread-safe committed-memory ledger. A budget of 0 means unlimited:
 * every reservation succeeds but is still tracked, so peak usage stays
 * observable either way.
 */
class ResourceGovernor
{
  public:
    explicit ResourceGovernor(uint64_t budget_bytes = 0)
        : budget_(budget_bytes)
    {
    }

    /** Budget in force (0 = unlimited). */
    uint64_t budgetBytes() const;

    /** Replace the budget (tests, triqd --mem-budget). Thread-safe. */
    void setBudgetBytes(uint64_t bytes);

    /** Currently committed bytes. */
    uint64_t committedBytes() const;

    /**
     * Would a `bytes` reservation fit right now? Advisory only (the
     * answer can change before a subsequent reserve); the admission
     * cost model uses it to reject predicted overruns up front.
     */
    bool wouldFit(uint64_t bytes) const;

    /**
     * Reserve `bytes` against the budget. @return false when the
     * reservation would exceed it (nothing is committed).
     */
    bool tryReserve(uint64_t bytes);

    /**
     * Reserve `bytes` or throw ResourceError carrying the attempted
     * size, the budget and the committed level. `what` names the
     * consumer for the message ("state vector", "sweep cell", ...).
     */
    void reserve(uint64_t bytes, const std::string &what);

    /** Return `bytes` to the budget. @pre bytes <= committedBytes(). */
    void release(uint64_t bytes);

    ResourceStats stats() const;

  private:
    mutable std::mutex mutex_;
    uint64_t budget_ = 0;
    uint64_t committed_ = 0;
    ResourceStats stats_;
};

/**
 * RAII reservation guard: reserves on construction (throwing
 * ResourceError when over budget), releases on destruction. Movable,
 * not copyable; a default-constructed guard holds nothing (the
 * governor-disabled path costs nothing).
 */
class MemReservation
{
  public:
    MemReservation() = default;

    MemReservation(ResourceGovernor &gov, uint64_t bytes,
                   const std::string &what)
        : gov_(&gov), bytes_(bytes)
    {
        gov.reserve(bytes, what);
    }

    ~MemReservation() { releaseNow(); }

    /**
     * Reserve `bytes` if they fit; a refusal returns an empty guard
     * (bytes() == 0) instead of throwing.
     */
    static MemReservation
    tryReserve(ResourceGovernor &gov, uint64_t bytes)
    {
        MemReservation r;
        if (gov.tryReserve(bytes)) {
            r.gov_ = &gov;
            r.bytes_ = bytes;
        }
        return r;
    }

    MemReservation(MemReservation &&o) noexcept
        : gov_(o.gov_), bytes_(o.bytes_)
    {
        o.gov_ = nullptr;
        o.bytes_ = 0;
    }

    MemReservation &
    operator=(MemReservation &&o) noexcept
    {
        if (this != &o) {
            releaseNow();
            gov_ = o.gov_;
            bytes_ = o.bytes_;
            o.gov_ = nullptr;
            o.bytes_ = 0;
        }
        return *this;
    }

    MemReservation(const MemReservation &) = delete;
    MemReservation &operator=(const MemReservation &) = delete;

    /** Bytes held (0 for an empty guard). */
    uint64_t bytes() const { return bytes_; }

    /** Release early (idempotent). */
    void
    releaseNow()
    {
        if (gov_ != nullptr && bytes_ > 0)
            gov_->release(bytes_);
        gov_ = nullptr;
        bytes_ = 0;
    }

  private:
    ResourceGovernor *gov_ = nullptr;
    uint64_t bytes_ = 0;
};

/**
 * The process-wide governor every simulator allocation reserves
 * against. Its budget resolves once on first use: TRIQ_MEM_BUDGET when
 * set ("256M"/"2G"/plain bytes; 0 or a malformed value = unlimited),
 * otherwise detectMemoryBudget().
 */
ResourceGovernor &processGovernor();

/**
 * Autodetect a sane budget: the tightest of the cgroup v2/v1 memory
 * limit and /proc/meminfo MemAvailable, or 0 (unlimited) when neither
 * is readable. Exposed for tests and for triqd startup logging.
 */
uint64_t detectMemoryBudget();

} // namespace triq

#endif // TRIQ_COMMON_RESOURCE_HH
