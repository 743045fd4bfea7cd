// Clean fixture: unordered-iter / pointer-key-iter look-alikes that
// must stay silent —
//   * unordered iteration whose output is sorted before it reaches
//     the Result, behind the documented allow() escape;
//   * ordered iteration over an int-keyed std::map (deterministic).
// LaneBook's order-insensitive erasure walk lives in lane_retire.cc:
// this file names a *Result type, so every unordered walk in it is
// in unordered-iter's file scope.
#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace neu10
{

struct ServeResult
{
    std::vector<double> lat_ms;
    double total_ms = 0.0;
};

class LaneBook
{
  public:
    ServeResult snapshot() const;
    void retire(unsigned below);
    double orderedSum() const;

  private:
    std::unordered_map<unsigned, double> open_;
    std::map<unsigned, double> done_;
};

ServeResult
LaneBook::snapshot() const
{
    ServeResult r;
    // neu10-lint: allow(unordered-iter): collected then sorted below
    for (const auto &[lane, ms] : open_)
        r.lat_ms.push_back(ms);
    std::sort(r.lat_ms.begin(), r.lat_ms.end());
    for (double ms : r.lat_ms)
        r.total_ms += ms;
    return r;
}

double
LaneBook::orderedSum() const
{
    double sum = 0.0;
    for (const auto &[lane, ms] : done_) // int-keyed: deterministic
        sum += ms;
    return sum;
}

} // namespace neu10
