// Fixture, linted as src/fixtures/guard_bad.hh: the guard does not
// follow SAM_<DIR>_<FILE>_HH.
#ifndef GUARD_BAD_H
#define GUARD_BAD_H

struct GuardBad
{
};

#endif // GUARD_BAD_H
