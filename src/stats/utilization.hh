/**
 * @file
 * Time-weighted busy-resource integrators.
 *
 * The paper quantifies ME/VE utilization as the fraction of core cycles
 * the engines are busy (Figs. 5, 22, 27). A UtilizationTracker integrates
 * "busy units x time" for a pool of @c capacity units whose busy count
 * changes at scheduling events, yielding exact utilization over
 * [0, end] in O(1) memory, without per-cycle sampling or a stored
 * busy-count history.
 */

#ifndef NEU10_STATS_UTILIZATION_HH
#define NEU10_STATS_UTILIZATION_HH

#include "common/types.hh"

namespace neu10
{

/** Integrates busy-unit-cycles for a pool of identical resources. */
class UtilizationTracker
{
  public:
    /**
     * @param capacity total number of units in the pool (e.g. 4 MEs).
     */
    explicit UtilizationTracker(double capacity = 1.0);

    /**
     * Report that from @p time onwards @p busy units are in use.
     * Times must be non-decreasing.
     */
    void setBusy(Cycles time, double busy);

    /** Busy units currently in use. */
    double busy() const { return busy_; }

    /** Integrated busy-unit-cycles in [0, time]. */
    double busyIntegral(Cycles time) const;

    /**
     * Utilization over [0, end]: integral of busy units divided by
     * capacity x end. Returns 0 for an empty window. @p end must be at
     * or after the last setBusy() time.
     */
    double utilization(Cycles end) const;

  private:
    double capacity_;
    double busy_ = 0.0;
    Cycles lastTime_ = 0.0;
    double integral_ = 0.0;

    // utilization() reproduces TimeSeries::average(0, end) over the
    // series setBusy() used to record, bit for bit: equal consecutive
    // values merge into one segment (as TimeSeries::record does), each
    // closed segment adds value x length to closedSum_ in record
    // order, and the open segment [segStart_, end] is added last.
    bool hasSegment_ = false;
    Cycles segStart_ = 0.0;
    double segValue_ = 0.0;
    double closedSum_ = 0.0;
};

} // namespace neu10

#endif // NEU10_STATS_UTILIZATION_HH
