#include "npu/bandwidth.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"

namespace neu10
{

namespace
{

/**
 * The water-fill proper. The unweighted instance drops the weight
 * lookups: every weight is 1, and x / 1.0 == x and cap * 1.0 / wsum ==
 * cap / wsum exactly, so both instances give the same bits for equal
 * weights.
 */
template <bool Weighted>
void
fill(std::span<const double> demands, double capacity,
     std::span<double> grants, std::vector<MaxMinKey> &scratch,
     std::span<const double> weights)
{
    const size_t n = demands.size();
    auto weight = [&](size_t i) {
        if constexpr (Weighted)
            return weights[i];
        else
            return 1.0;
    };

    // Water-fill exactly: order by demand/weight; at each level either
    // everyone remaining is satisfied or the capacity splits by weight.
    // MaxMinKey has no default initializers, so the inline buffer is
    // not cleared on every call.
    std::array<MaxMinKey, kMaxMinInline> inline_order;
    if (n > kMaxMinInline)
        scratch.resize(n);
    MaxMinKey *order =
        n > kMaxMinInline ? scratch.data() : inline_order.data();
    for (size_t i = 0; i < n; ++i) {
        double level = demands[i];
        if constexpr (Weighted) {
            const double w = weights[i];
            level = w > 0 ? demands[i] / w : 0.0;
        }
        order[i] = {level, static_cast<std::uint32_t>(i)};
    }
    if (n <= kMaxMinInline) {
        // Insertion with a strict `<` never moves an entry past an
        // equal one, so ties keep input order.
        for (size_t i = 1; i < n; ++i) {
            const MaxMinKey k = order[i];
            size_t j = i;
            for (; j > 0 && k.level < order[j - 1].level; --j)
                order[j] = order[j - 1];
            order[j] = k;
        }
    } else {
        // Same order without std::stable_sort's temporary buffer:
        // equal levels fall back to the input index.
        std::sort(order, order + n,
                  [](const MaxMinKey &a, const MaxMinKey &b) {
                      if (a.level < b.level || b.level < a.level)
                          return a.level < b.level;
                      return a.index < b.index;
                  });
    }

    double cap = capacity;
    double wsum = 0.0;
    for (size_t k = 0; k < n; ++k) {
        const size_t i = order[k].index;
        wsum += demands[i] > 0 ? weight(i) : 0.0;
    }

    for (size_t k = 0; k < n; ++k) {
        const size_t i = order[k].index;
        const double w = weight(i);
        if (demands[i] <= 0.0 || w <= 0.0)
            continue;
        const double fair = Weighted ? cap * w / wsum : cap / wsum;
        const double got = std::min(demands[i], fair);
        grants[i] = got;
        cap -= got;
        wsum -= w;
        if (cap <= 0.0 || wsum <= 0.0)
            break;
    }
}

} // anonymous namespace

void
maxMinFill(std::span<const double> demands, double capacity,
           std::span<double> grants, std::vector<MaxMinKey> &scratch,
           std::span<const double> weights)
{
    // Capacities arrive from chains of grant subtractions, so allow
    // (and flatten) floating-point dust below zero.
    NEU10_ASSERT(capacity >= -1e-6, "negative capacity");
    NEU10_ASSERT(weights.empty() || weights.size() == demands.size(),
                 "weights size mismatch");
    NEU10_ASSERT(grants.size() == demands.size(), "grants size mismatch");

    const size_t n = demands.size();
    std::fill(grants.begin(), grants.end(), 0.0);
    if (n == 0 || capacity <= 0.0)
        return;

    if (!weights.empty()) {
        for (double x : weights)
            NEU10_ASSERT(x >= 0.0, "negative weight");
        fill<true>(demands, capacity, grants, scratch, weights);
    } else if (n == 1) {
        // The general fill's only step: fair = capacity * 1 / 1.
        if (demands[0] > 0.0)
            grants[0] = std::min(demands[0], capacity);
    } else {
        fill<false>(demands, capacity, grants, scratch, weights);
    }
}

std::vector<double>
maxMinAllocate(const std::vector<double> &demands, double capacity,
               const std::vector<double> &weights)
{
    std::vector<double> grants(demands.size());
    std::vector<MaxMinKey> scratch;
    maxMinFill(demands, capacity, grants, scratch, weights);
    return grants;
}

} // namespace neu10
