#include "llm/kv_pool.hh"

#include <algorithm>

#include "common/logging.hh"

namespace neu10
{
namespace llm
{

double
KvPoolStats::fragmentationFrac(std::uint32_t pageTokens) const
{
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(usedPages) * pageTokens;
    if (capacity == 0)
        return 0.0;
    return 1.0 - static_cast<double>(usedTokens) /
                     static_cast<double>(capacity);
}

KvPool::KvPool(std::uint32_t numPages, std::uint32_t pageTokens)
    : pageTokens_(pageTokens)
{
    if (pageTokens == 0)
        fatal("KvPool: pageTokens must be >= 1");
    stats_.totalPages = numPages;
    // Stack the ids so the first allocation takes page 0 (pop_back
    // of a descending stack): page handout order is then a pure
    // function of the call sequence.
    freeList_.reserve(numPages);
    for (std::uint32_t i = numPages; i > 0; --i)
        freeList_.push_back(i - 1);
}

std::uint32_t
KvPool::pagesFor(std::uint64_t tokens) const
{
    return static_cast<std::uint32_t>(
        (tokens + pageTokens_ - 1) / pageTokens_);
}

std::uint32_t
KvPool::ensureTokens(SeqId seq, std::uint64_t tokens)
{
    lastGrowFailed_ = false;
    const std::uint32_t want = pagesFor(tokens);
    if (seq >= held_.size()) {
        if (want == 0)
            return 0;
        held_.resize(seq + 1);
        tokens_.resize(seq + 1);
    }
    std::vector<KvPageId> &list = held_[seq];
    const auto have = static_cast<std::uint32_t>(list.size());
    const std::uint64_t cur = have == 0 ? 0 : live(seq);
    const std::uint32_t need = want > have ? want - have : 0;
    if (need > 0) {
        if (need > freeList_.size()) {
            ++stats_.failedAllocs;
            lastGrowFailed_ = true;
            return 0;
        }
        if (have == 0) {
            ++holders_;
            if (!spare_.empty()) {
                list = std::move(spare_.back());
                spare_.pop_back();
            }
        }
        for (std::uint32_t i = 0; i < need; ++i) {
            list.push_back(freeList_.back());
            freeList_.pop_back();
        }
        stats_.usedPages += need;
        stats_.allocOps += need;
        stats_.highWaterPages =
            std::max(stats_.highWaterPages, stats_.usedPages);
    }
    // The live-token count only grows (growAll may already have
    // moved it past @p tokens).
    if (tokens > cur) {
        stats_.usedTokens += tokens - cur;
        tokens_[seq] = tokens - grown_;
    }
    return need;
}

void
KvPool::growAll(std::uint64_t tokens)
{
    grown_ += tokens;
    stats_.usedTokens += tokens * holders_;
}

std::uint32_t
KvPool::release(SeqId seq)
{
    if (!isHolder(seq))
        return 0;
    std::vector<KvPageId> &list = held_[seq];
    const auto freed = static_cast<std::uint32_t>(list.size());
    // Return pages in reverse allocation order so the LIFO free list
    // hands them back in the order they were taken.
    for (auto rit = list.rbegin(); rit != list.rend(); ++rit)
        freeList_.push_back(*rit);
    // The emptied list's storage goes to the next new holder, so
    // page lists stop reallocating once the pool has warmed up and
    // memory stays bounded by the peak holder count.
    list.clear();
    spare_.push_back(std::move(list));
    stats_.usedTokens -= live(seq);
    --holders_;
    stats_.usedPages -= freed;
    stats_.freeOps += freed;
    return freed;
}

std::uint64_t
KvPool::tokensHeld(SeqId seq) const
{
    return isHolder(seq) ? live(seq) : 0;
}

const std::vector<KvPageId> *
KvPool::pages(SeqId seq) const
{
    return isHolder(seq) ? &held_[seq] : nullptr;
}

std::vector<SeqId>
KvPool::holders() const
{
    std::vector<SeqId> out;
    out.reserve(holders_);
    for (SeqId seq = 0; seq < held_.size(); ++seq)
        if (!held_[seq].empty())
            out.push_back(seq);
    return out;
}

KvPool::Snapshot
KvPool::snapshot() const
{
    Snapshot snap;
    snap.pageTokens = pageTokens_;
    snap.seqTokens.reserve(holders_);
    for (SeqId seq : holders())
        snap.seqTokens.emplace_back(seq, live(seq));
    return snap;
}

void
KvPool::restore(const Snapshot &snap)
{
    if (stats_.usedPages != 0 || holders_ != 0)
        fatal("KvPool::restore: target pool is not empty "
              "(%u pages in use)", stats_.usedPages);
    if (snap.pageTokens != pageTokens_)
        fatal("KvPool::restore: page size mismatch (%u vs %u tokens)",
              snap.pageTokens, pageTokens_);
    for (const auto &[seq, toks] : snap.seqTokens) {
        ensureTokens(seq, toks);
        if (lastGrowFailed_)
            fatal("KvPool::restore: pool of %u pages cannot cover "
                  "the checkpoint image", stats_.totalPages);
    }
    audit();
}

void
KvPool::audit() const
{
    std::uint64_t held = 0, nonEmpty = 0;
    for (const std::vector<KvPageId> &list : held_) {
        held += list.size();
        nonEmpty += list.empty() ? 0 : 1;
    }
    if (nonEmpty != holders_)
        fatal("KvPool::audit: %llu page lists are non-empty but "
              "the holder count says %u",
              static_cast<unsigned long long>(nonEmpty), holders_);
    if (held != stats_.usedPages)
        fatal("KvPool::audit: page lists hold %llu pages but "
              "usedPages says %u",
              static_cast<unsigned long long>(held),
              stats_.usedPages);
    if (stats_.usedPages + freeList_.size() != stats_.totalPages)
        fatal("KvPool::audit: conservation broken (%u used + %zu "
              "free != %u total)",
              stats_.usedPages, freeList_.size(), stats_.totalPages);
    // Every page id on exactly one list, exactly once.
    std::vector<bool> seen(stats_.totalPages, false);
    const auto mark = [&](KvPageId id) {
        if (id >= stats_.totalPages)
            fatal("KvPool::audit: page id %u out of range", id);
        if (seen[id])
            fatal("KvPool::audit: page %u double-booked", id);
        seen[id] = true;
    };
    for (KvPageId id : freeList_)
        mark(id);
    std::uint64_t tokens = 0;
    for (SeqId seq : holders()) {
        const std::vector<KvPageId> &list = held_[seq];
        for (KvPageId id : list)
            mark(id);
        // Holder list must cover its live tokens exactly.
        const std::uint64_t toks = live(seq);
        tokens += toks;
        if (pagesFor(toks) > list.size())
            fatal("KvPool::audit: seq %llu holds %zu pages for "
                  "%llu tokens",
                  static_cast<unsigned long long>(seq), list.size(),
                  static_cast<unsigned long long>(toks));
    }
    if (tokens != stats_.usedTokens)
        fatal("KvPool::audit: holders carry %llu live tokens but "
              "usedTokens says %llu",
              static_cast<unsigned long long>(tokens),
              static_cast<unsigned long long>(stats_.usedTokens));
}

} // namespace llm
} // namespace neu10
