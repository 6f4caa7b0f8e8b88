// Fixture, linted as src/fixtures/stats_ok.hh with stats_ok.cc: every
// member of a struct with registerIn is registered in the .cc; a Stats
// struct without registerIn is not a registry.
#ifndef SAM_FIXTURES_STATS_OK_HH
#define SAM_FIXTURES_STATS_OK_HH

struct StatGroup;
struct Counter;
struct Accum;

struct OkStats
{
    Counter hits;
    Accum bytes;

    void registerIn(StatGroup &group) const;
};

struct ScratchStats
{
    Counter unregistered;
};

#endif // SAM_FIXTURES_STATS_OK_HH
