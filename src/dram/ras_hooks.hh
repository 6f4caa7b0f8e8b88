/**
 * @file
 * RAS (reliability/availability/serviceability) hook interfaces the
 * DataPath calls into on every functional access. The interfaces live
 * in the dram layer so the data path needs no dependency on the
 * concrete fault-injection machinery; `src/faults` provides the
 * implementations (FaultInjector, RasEngine) and `System` wires them
 * up.
 */

#ifndef SAM_DRAM_RAS_HOOKS_HH
#define SAM_DRAM_RAS_HOOKS_HH

#include <cstdint>
#include <vector>

#include "src/common/types.hh"

namespace sam {

class BackingStore;
class EccEngine;

/**
 * Live fault source attached to a rank. The data path calls tick()
 * once per access with the current phase-1 core clock (faults arrive
 * mid-run, not between runs) and beforeDecode() on every read attempt
 * so intermittent bus/pin faults can hit retried reads independently.
 */
class FaultInjectionHook
{
  public:
    virtual ~FaultInjectionHook() = default;

    /** Advance fault-model time; may corrupt stored blobs (FIT model). */
    virtual void tick(Cycle now, BackingStore &store,
                      const EccEngine &ecc) = 0;

    /**
     * Corrupt the in-flight blob of one read attempt (bus faults).
     * Returns true when the blob may have been modified -- a clean
     * line whose read returns false may skip ECC decode entirely.
     */
    virtual bool beforeDecode(Addr line, std::vector<std::uint8_t> &blob,
                              const EccEngine &ecc) = 0;

    /**
     * True when beforeDecode() on the next read attempt would neither
     * draw from the fault model's RNG nor modify the blob, so a
     * provably clean line may skip it -- and with it building the
     * blob -- without changing any later draw. Asked after tick().
     */
    virtual bool leavesNextReadUntouched() const = 0;
};

/**
 * Read-path RAS policy: scrub corrected errors, retry uncorrectable
 * ones, poison on exhaustion, and retire repeat offenders to spare
 * lines.
 */
class RasPolicy
{
  public:
    virtual ~RasPolicy() = default;

    /** What to do after a corrected error on `line`. */
    struct CorrectedDirective
    {
        bool scrub = false;   ///< Write the corrected blob back.
        bool retire = false;  ///< Leaky bucket overflowed: remap.
    };

    /** Map a logical line address to its current physical line. */
    virtual Addr resolve(Addr line) const = 0;

    virtual CorrectedDirective onCorrected(Addr line, Cycle now) = 0;

    /**
     * An attempt decoded as uncorrectable. Returns true to re-read
     * (bounded retry); false to give up and poison.
     */
    virtual bool onUncorrectable(Addr line, Cycle now,
                                 unsigned attempt) = 0;

    /** Retries exhausted: the returned data is poisoned. */
    virtual void onPoisoned(Addr line) = 0;

    /**
     * Allocate a spare for `line` and record the remap. Returns the
     * spare's address, or `line` itself when the spare pool is
     * exhausted (the caller then leaves the line in place).
     */
    virtual Addr retireLine(Addr line) = 0;
};

} // namespace sam

#endif // SAM_DRAM_RAS_HOOKS_HH
