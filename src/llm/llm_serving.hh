/**
 * @file
 * Token-level LLM serving with continuous batching over a paged KV
 * pool (the production regime the §V-F closed-loop graph abstracts
 * away).
 *
 * Requests are *sequences*: a prompt of P tokens prefilled in one
 * pass, then one token per decode iteration until the sequence's
 * output length is reached. Each iteration adds one live token to
 * every running sequence, prices the step with the analytic roofline
 * (llm/phase_model.hh — decode re-streams all weights plus the live
 * KV every iteration) and advances the whole running batch together.
 *
 * Page-boundary growth: the KV pool (llm/kv_pool.hh) records the
 * batch's new tokens with one growAll per iteration; a sequence
 * calls the pool only when its next token does not fit its last
 * page (once every page-tokens iterations), which is also the only
 * point where a grow can be refused and force a preemption.
 *
 * Decode run-ahead: while the batch is fixed — no arrival due, no
 * completion, no page-gated head waiting to retry, and every page
 * crossing covered by free pages — the endpoint runs a window of
 * iterations in one tight loop: per iteration the step cost, the
 * occupancy integrals, the trace span and any page crossings, in the
 * same order as one iteration at a time (so every floating-point sum
 * is bit-identical); token counts, contexts and completions are
 * settled at the window's end. An iteration thus costs O(1) host
 * work plus its page crossings, not O(batch).
 *
 * Schedulers (LlmParams::scheduler):
 *
 *  - Continuous: waiting sequences prefill into the running batch
 *    whenever pages are free and a batch slot is open; completed
 *    sequences free pages immediately, so queued sequences join
 *    mid-flight. Page pressure preempts the youngest running
 *    sequence (pages freed, re-queued at the head; its context is
 *    re-prefilled on readmission — recompute, not swap).
 *
 *  - StaticBatch (baseline): a batch is admitted only when the core
 *    is idle, every member reserves worst-case prompt+output pages
 *    up front, and nothing joins until the whole batch drains.
 *
 * Determinism: the loop is analytic and single-threaded per
 * endpoint; sequence lengths come from a seeded Rng drawn in
 * arrival order before simulation starts. Results are bit-identical
 * across SimEngine choices (no event queue is involved) and fleet
 * thread widths (endpoints share nothing; the fleet merges results
 * in core-index order).
 */

#ifndef NEU10_LLM_LLM_SERVING_HH
#define NEU10_LLM_LLM_SERVING_HH

#include <cstdint>

#include "llm/phase_model.hh"
#include "runtime/serving.hh"

namespace neu10
{
namespace llm
{

/**
 * Size a KV pool from a vNPU HBM reservation: everything left after
 * weights and the activation working set, in whole pages.
 * @throws FatalError when the reservation cannot hold even one page
 * (the §III-B residency check should have caught this upstream).
 */
std::uint32_t kvPoolPages(const LlmModelSpec &spec, Bytes hbmBytes,
                          unsigned batch, unsigned pageTokens);

/**
 * Run one LLM serving experiment (all tenants of @p config, each an
 * independent endpoint on a static bandwidth/engine share of the
 * core). Dispatched by runServing for ServingMode::LlmContinuous —
 * call through runServing unless testing this layer directly.
 */
ServingResult runLlmServing(const ServingConfig &config);

} // namespace llm
} // namespace neu10

#endif // NEU10_LLM_LLM_SERVING_HH
