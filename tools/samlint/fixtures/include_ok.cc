// Fixture: project includes by repo-root-relative path; system
// includes are not project includes.
#include <vector>

#include "src/dram/device.hh"
#include "tools/samlint/checks.hh"

int includeOk();
