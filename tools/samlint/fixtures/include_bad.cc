// Fixture: project includes relative to src/ or to this file do not
// resolve from the repo root.
#include "dram/device.hh"
#include "checks.hh"

int includeBad();
