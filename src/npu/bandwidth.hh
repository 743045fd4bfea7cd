/**
 * @file
 * Max-min fair bandwidth allocation.
 *
 * Neu10 shares HBM bandwidth fairly between collocated vNPUs by default
 * (§III-B "memory allocation"): each vNPU with outstanding traffic gets
 * an equal share, shares a vNPU cannot use spill to the others, and the
 * same discipline applies within a vNPU across its uTOps. This is the
 * classic max-min water-filling problem, solved exactly here (no
 * iteration-to-convergence), and reused for VE-harvest distribution.
 *
 * The core simulator water-fills several times per scheduling event,
 * so the algorithm itself (maxMinFill) writes into caller storage and
 * allocates nothing once the caller's scratch has grown;
 * maxMinAllocate is the value-returning convenience form over it.
 */

#ifndef NEU10_NPU_BANDWIDTH_HH
#define NEU10_NPU_BANDWIDTH_HH

#include <cstdint>
#include <span>
#include <vector>

namespace neu10
{

/** One entry of the water-fill order: demand per unit weight. No
 * default initializers: maxMinFill's on-stack order buffer is written
 * before it is read, so it is not cleared on every call. */
struct MaxMinKey
{
    double level;
    std::uint32_t index;
};

/** Consumers maxMinFill orders without touching its scratch. */
inline constexpr std::size_t kMaxMinInline = 16;

/**
 * Max-min fair allocation: given per-consumer demands and a total
 * capacity, write per-consumer grants such that (a) no grant exceeds
 * its demand, (b) the total never exceeds capacity, (c) capacity a
 * consumer declines is redistributed to the still-hungry ones evenly.
 *
 * Consumers are filled in ascending demand/weight order, ties in input
 * order. Up to kMaxMinInline consumers are ordered on the stack; larger
 * inputs order inside @p scratch, which keeps its capacity across
 * calls.
 *
 * @param demands  non-negative demands.
 * @param capacity total capacity (>= 0, fp dust below zero allowed).
 * @param grants   output, same size as @p demands.
 * @param scratch  caller-owned ordering storage for large inputs.
 * @param weights  optional per-consumer weights (empty: equal).
 */
void maxMinFill(std::span<const double> demands, double capacity,
                std::span<double> grants, std::vector<MaxMinKey> &scratch,
                std::span<const double> weights = {});

/** maxMinFill into a fresh vector (tests, benches, cold paths). */
std::vector<double> maxMinAllocate(const std::vector<double> &demands,
                                   double capacity,
                                   const std::vector<double> &weights = {});

} // namespace neu10

#endif // NEU10_NPU_BANDWIDTH_HH
