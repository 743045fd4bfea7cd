// Fixture: an allow() naming a rule the analyzer does not own. A typo
// in an escape must not silently waive nothing, so the analyzer exits
// with a file:line error instead of a verdict.
namespace neu10
{

int
tally(int a, int b)
{
    // neu10-lint: allow(float-equal): misspelt float-eq // line 10
    return a + b;
}

} // namespace neu10
