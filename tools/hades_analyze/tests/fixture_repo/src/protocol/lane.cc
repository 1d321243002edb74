#include "lane.hh"

namespace fx::protocol
{

void
Engine::escapeWrite()
{
    total_ += 1; // EXPECT: lane-escape
}

void
Engine::gatedWrite()
{
    refuseIfThreaded();
    gated_ += 1;
}

void
Engine::shardedWrite(unsigned node)
{
    byNode_[node] += 1;
}

void
Engine::accessorWrite()
{
    st().hits += 1;
}

void
Engine::annotatedWrite()
{
    annotated_ += 1;
}

void
Engine::markedWrite()
{
    // hades-analyze: lane-escape-ok (fixture: site-level suppression)
    sitePass_ += 1;
}

void
AnnotatedEngine::anyWrite()
{
    x_ += 1;
}

void
DerivedAnnotated::derivedWrite()
{
    y_ += 1;
}

void
DerivedPlain::derivedWrite()
{
    z_ += 1; // EXPECT: lane-escape
}

} // namespace fx::protocol
