// Fixture, linted as src/fixtures/guard_ok.hh: the guard names the
// header's path below src/.
#ifndef SAM_FIXTURES_GUARD_OK_HH
#define SAM_FIXTURES_GUARD_OK_HH

struct GuardOk
{
};

#endif // SAM_FIXTURES_GUARD_OK_HH
