/**
 * @file
 * Deterministic paged KV-cache pool (vLLM-style paged attention,
 * applied to the vNPU HBM budget).
 *
 * A serving endpoint carves the vNPU's HBM reservation left over
 * after weights into fixed-size pages of `pageTokens` tokens worth
 * of K+V state. Each live sequence holds an ordered page list that
 * grows as it decodes and is returned wholesale when it completes or
 * is preempted. All accounting is integral (page and token counts),
 * so results are bit-exact by construction; the free list is a LIFO
 * stack and per-sequence state lives in dense tables scanned in
 * index order, so identical call sequences yield identical pools at
 * any host thread width.
 *
 * Dense-SeqId contract: a SeqId is an index into those tables, so
 * callers number their sequences 0, 1, 2, ... (an endpoint uses its
 * sequence-table index). Memory grows with the largest SeqId seen,
 * not with the number of holders; lookups are O(1).
 *
 * Decode grows every running sequence by one token per iteration,
 * but a page list only changes once every pageTokens tokens. growAll
 * records that lockstep growth for every holder in O(1); the caller
 * calls ensureTokens only for the holders that cross a page boundary.
 *
 * The §III-B residency check happens upstream: sizeVnpuForModel
 * reserves HBM for weights + per-sequence state, and
 * llm_serving sizes the pool from that reservation minus weights —
 * KV pages and weights compete for the same Eq. 4 budget.
 */

#ifndef NEU10_LLM_KV_POOL_HH
#define NEU10_LLM_KV_POOL_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace neu10
{
namespace llm
{

/** Identifier of one sequence within an endpoint. */
using SeqId = std::uint64_t;

/** Identifier of one KV page within a pool. */
using KvPageId = std::uint32_t;

/** Cumulative pool accounting (rides into LlmEndpointStats). */
struct KvPoolStats
{
    std::uint32_t totalPages = 0;
    std::uint32_t usedPages = 0;
    std::uint32_t highWaterPages = 0;
    std::uint64_t usedTokens = 0;  ///< live tokens across holders
    std::uint64_t allocOps = 0;    ///< pages handed out, cumulative
    std::uint64_t freeOps = 0;     ///< pages returned, cumulative
    std::uint64_t failedAllocs = 0;///< refused grow requests

    /**
     * Internal fragmentation right now: the fraction of allocated
     * page capacity (usedPages x pageTokens) not holding live
     * tokens. 0 when nothing is allocated.
     */
    double fragmentationFrac(std::uint32_t pageTokens) const;
};

/** Fixed-page KV allocator for one endpoint. */
class KvPool
{
  public:
    /**
     * @param numPages   pool capacity in pages.
     * @param pageTokens tokens of KV state per page (>= 1; enforced
     *                   with fatal()).
     */
    KvPool(std::uint32_t numPages, std::uint32_t pageTokens);

    std::uint32_t pageTokens() const { return pageTokens_; }
    std::uint32_t totalPages() const { return stats_.totalPages; }
    std::uint32_t usedPages() const { return stats_.usedPages; }

    std::uint32_t
    freePages() const
    {
        return stats_.totalPages - stats_.usedPages;
    }

    const KvPoolStats &stats() const { return stats_; }

    /** Pages needed to hold @p tokens (ceiling division). */
    std::uint32_t pagesFor(std::uint64_t tokens) const;

    /**
     * Grow (or create) @p seq's page list so it covers @p tokens
     * live tokens. All-or-nothing: on insufficient free pages
     * nothing changes and failedAllocs increments. Shrinking is not
     * supported — sequences only grow until released.
     * @return pages newly allocated (0 can mean "already covered");
     *         on failure returns 0 and @ref lastGrowFailed is set.
     */
    std::uint32_t ensureTokens(SeqId seq, std::uint64_t tokens);

    /**
     * Add @p tokens live tokens to every holder at once: the lockstep
     * growth of one decode iteration (or several) across a batch in
     * which every holder decodes. O(1), never allocates. A holder
     * this pushes past its last page must be grown with
     * ensureTokens() (which then only allocates) before the next
     * audit() or snapshot().
     */
    void growAll(std::uint64_t tokens);

    /** True iff the previous ensureTokens() call was refused. */
    bool lastGrowFailed() const { return lastGrowFailed_; }

    /** Release every page @p seq holds. @return pages freed. */
    std::uint32_t release(SeqId seq);

    /** Pages currently held by @p seq (0 if unknown). */
    std::uint32_t
    pagesHeld(SeqId seq) const
    {
        return seq < held_.size()
                   ? static_cast<std::uint32_t>(held_[seq].size())
                   : 0;
    }

    /** Live tokens recorded for @p seq (0 if unknown). */
    std::uint64_t tokensHeld(SeqId seq) const;

    /** @p seq's page list in allocation order; nullptr if unknown. */
    const std::vector<KvPageId> *pages(SeqId seq) const;

    /** Holders (sequences with a non-empty page list) in ascending
     * SeqId order (deterministic iteration). */
    std::vector<SeqId> holders() const;

    /**
     * Checkpoint image: per-sequence live token counts, ascending
     * SeqId. Page *identity* is deliberately not part of the image —
     * a restore lands on a different core whose pool reassigns pages
     * deterministically; only capacity must be conserved.
     */
    struct Snapshot
    {
        std::uint32_t pageTokens = 0;
        std::vector<std::pair<SeqId, std::uint64_t>> seqTokens;
    };

    Snapshot snapshot() const;

    /**
     * Rebuild holders from @p snap into this (empty) pool.
     * @throws FatalError if the pool is not empty, page sizes
     * differ, or capacity cannot cover the image (a restore must
     * never silently leak or oversubscribe).
     */
    void restore(const Snapshot &snap);

    /**
     * Conservation audit: used + free == total, per-holder list
     * sizes match their token counts, and no page is on two lists
     * or both held and free. @throws FatalError on violation.
     */
    void audit() const;

  private:
    bool
    isHolder(SeqId seq) const
    {
        return seq < held_.size() && !held_[seq].empty();
    }

    /** Live tokens of holder @p seq. */
    std::uint64_t live(SeqId seq) const { return tokens_[seq] + grown_; }

    std::uint32_t pageTokens_;
    std::vector<KvPageId> freeList_; // LIFO: pop_back to allocate
    // Dense tables indexed by SeqId: iteration is in SeqId order by
    // construction (determinism contract). An entry whose page list
    // is empty is not a holder; its token slot is meaningless.
    std::vector<std::vector<KvPageId>> held_;
    // Live tokens minus grown_ at the time they were recorded
    // (modulo 2^64), so growAll() moves every holder at once.
    std::vector<std::uint64_t> tokens_;
    // Storage of released page lists (empty, capacity kept).
    std::vector<std::vector<KvPageId>> spare_;
    std::uint64_t grown_ = 0;   ///< Σ growAll() arguments
    std::uint32_t holders_ = 0; ///< sequences with pages
    KvPoolStats stats_;
    bool lastGrowFailed_ = false;
};

} // namespace llm
} // namespace neu10

#endif // NEU10_LLM_KV_POOL_HH
