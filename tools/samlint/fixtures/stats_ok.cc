// Fixture, linted as src/fixtures/stats_ok.cc: registers every OkStats
// member, one through a qualified member access.

void
OkStats::registerIn(StatGroup &group) const
{
    const OkStats &self = *this;
    group.addCounter("hits", hits, "cache hits");
    group.addAccum("bytes", self.bytes, "bytes moved");
}
