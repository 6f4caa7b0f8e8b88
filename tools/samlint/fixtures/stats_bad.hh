// Fixture, linted as src/fixtures/stats_bad.hh: `writes` is declared
// but never registered, so it would vanish from stats dumps.
#ifndef SAM_FIXTURES_STATS_BAD_HH
#define SAM_FIXTURES_STATS_BAD_HH

struct StatGroup;
struct Counter;
struct Accum;

struct BadStats
{
    Counter reads;
    Counter writes;
    Accum latency;

    void
    registerIn(StatGroup &group) const
    {
        group.addCounter("reads", reads, "reads");
        group.addAccum("latency", latency, "read latency");
    }
};

#endif // SAM_FIXTURES_STATS_BAD_HH
