// Fixture: a site only the type-based half of unordered-iter sees.
// The file names no *Result type and sits outside obs/ and llm/, so
// the file-scope half stays silent; the walk is flagged because the
// enclosing function exports JSON.
#include <string>
#include <unordered_map>

namespace neu10
{

class QueueBook
{
  public:
    std::string depthsJson() const;

  private:
    std::unordered_map<unsigned, unsigned> depth_;
};

std::string
QueueBook::depthsJson() const
{
    std::string out = "{";
    for (const auto &[queue, depth] : depth_) // line 24
        out += std::to_string(queue) + ":" + std::to_string(depth);
    return out + "}";
}

} // namespace neu10
