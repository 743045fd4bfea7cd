// Fixture: stale-allow, judged for every rule. The naked-new directive
// excuses nothing — the naked new it once covered became a unique_ptr
// — and must be flagged at its own line. The banned-random and
// mutable-global directives still suppress live findings, so they
// must NOT be reported. The pointer-key-iter directive outlived the
// map it excused: stale-allow judges whole-program rules too, so it
// is flagged as well.
#include <cstdlib>
#include <memory>

namespace neu10
{

struct Widget
{
    int v = 0;
};

std::unique_ptr<Widget>
makeWidget()
{
    // neu10-lint: allow(naked-new): wraps the legacy pool // line 22
    return std::make_unique<Widget>();
}

int
legacyDraw()
{
    // neu10-lint: allow(banned-random): seeding the legacy shim once
    return rand();
}

// neu10-lint: allow(mutable-global): single-threaded legacy shim
int g_shim_calls = 0;

int
shimCalls()
{
    // neu10-lint: allow(pointer-key-iter): the map is gone // line 39
    return g_shim_calls;
}

} // namespace neu10
