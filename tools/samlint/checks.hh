/**
 * @file
 * samlint's project-specific checks.
 *
 * sam-determinism
 *   Code reachable from the bit-identity surface (src/runner, src/sim,
 *   src/controller, plus everything they include) must not read
 *   ambient nondeterminism: no std::rand / std::random_device /
 *   mt19937 outside the sanctioned Rng, no wall clocks, no
 *   std::this_thread, no getenv. Iterating an unordered container
 *   (hash order) or keying an ordered container by pointer (address
 *   order) makes memory layout observable and is flagged; keyed
 *   lookups (find/count/insert/erase) are fine.
 *
 * sam-cycle-accounting
 *   Fields declared with the Cycle type are simulation-time state.
 *   Mutating one outside its declaring directory or the engine path
 *   (src/dram, src/check) is flagged, as is comparing a Cycle field
 *   against a wall-clock-named value (cross-clock-domain comparison).
 *
 * sam-observer-discipline
 *   A translation unit that calls addCommandObserver() must also call
 *   removeCommandObserver() (attach/detach pairing -- a dangling
 *   observer is a use-after-free once the observer dies first), and an
 *   observer callback must not reach back into the observed device.
 *
 * sam-locking
 *   Raw std::mutex / lock_guard / unique_lock / condition_variable on
 *   the simulation surface are flagged: use sam::Mutex / sam::MutexLock
 *   (src/common/thread_annotations.hh) so the locking discipline stays
 *   visible to clang's -Wthread-safety analysis.
 *
 * sam-codec-construction
 *   Constructing or owning a ReedSolomon outside the codec layer
 *   (src/ecc/{codec_registry,reed_solomon,gf256,ecc_engine}) rebuilds
 *   its generator/syndrome tables per instance; borrow the shared
 *   immutable codec with CodecRegistry::reedSolomon(n, k) instead.
 *   Reference/pointer uses and forward declarations are fine. GF256
 *   instance declarations are flagged the same way (its tables are
 *   already shared compile-time constants).
 *
 * sam-include-guard
 *   A src/ header's include guard is SAM_<DIR>_<FILE>_HH (path below
 *   src/, upper-cased, '-' and '.' as '_'), its first directives an
 *   `#ifndef` and the matching `#define` on the next line.
 *
 * sam-include-path
 *   A project include names its file by the repo-root-relative path
 *   (src/dram/device.hh, bench/bench_common.hh), so every translation
 *   unit compiles with the single repo-root include directory.
 *
 * sam-stats-registration
 *   Every Counter / Accum member of a src/ header's *Stats struct that
 *   has a registerIn() is registered with addCounter / addAccum in the
 *   header or its .cc: an unregistered counter silently vanishes from
 *   stats dumps.
 *
 * The first five checks and the stats check cover src/ and tools/;
 * the include-path check covers every source under src/, tests/,
 * tools/, bench/ and examples/.
 *
 * All checks honor // NOLINT(check) and // NOLINTNEXTLINE(check).
 */

#ifndef SAM_TOOLS_SAMLINT_CHECKS_HH
#define SAM_TOOLS_SAMLINT_CHECKS_HH

#include <string>
#include <vector>

#include "tools/samlint/lexer.hh"

namespace samlint {

struct Finding
{
    std::string path;
    unsigned line = 0;
    std::string check;
    std::string message;
};

struct LintOptions
{
    /** Check names to run; empty = all. */
    std::vector<std::string> checks;
    /** Treat every file as on the bit-identity surface (fixtures). */
    bool allSurface = false;
    /** Repository root that project includes resolve against. */
    std::string root = ".";
};

/** Names of all registered checks. */
std::vector<std::string> allCheckNames();

/**
 * Run the selected checks over the whole corpus (cross-file state --
 * the include graph and the Cycle member map -- is built from every
 * file given). Findings are sorted by path then line.
 */
std::vector<Finding> runChecks(const std::vector<SourceFile> &files,
                               const LintOptions &opt);

} // namespace samlint

#endif // SAM_TOOLS_SAMLINT_CHECKS_HH
