/**
 * @file
 * Test helper: a scoped override of the process governor's memory
 * budget. Tests use it to force the executor's low-memory plan, to
 * make snapshot reservations refusable and to exercise admission.
 */

#ifndef TRIQ_TESTS_BUDGET_GUARD_HH
#define TRIQ_TESTS_BUDGET_GUARD_HH

#include <cstdint>

#include "common/resource.hh"

namespace triq
{

/** Scoped budget override on the process governor (always restored). */
struct BudgetGuard
{
    explicit BudgetGuard(uint64_t bytes)
        : old_(processGovernor().budgetBytes())
    {
        processGovernor().setBudgetBytes(bytes);
    }
    ~BudgetGuard() { processGovernor().setBudgetBytes(old_); }
    BudgetGuard(const BudgetGuard &) = delete;
    BudgetGuard &operator=(const BudgetGuard &) = delete;

    uint64_t old_;
};

} // namespace triq

#endif // TRIQ_TESTS_BUDGET_GUARD_HH
