/**
 * @file
 * Live fault injector attached to the simulated rank. Driven by the
 * phase-1 core clock and a seeded RNG, it applies fault models to the
 * ECC-encoded BackingStore blobs *mid-run*:
 *
 *  - Transient: stored single-bit flips at a configurable FIT-style
 *    rate (expected flips per million bus cycles across the rank),
 *    landing on uniformly random stored lines;
 *  - StuckAt:   an intermittent stuck-at pin -- each read has a
 *    configurable probability of a few flipped bits within one chip's
 *    contribution (bus fault, not stored, so a re-read clears it);
 *  - Chipkill:  a permanent whole-chip kill at cycle T -- from then on
 *    every read sees that chip's contribution inverted.
 */

#ifndef SAM_FAULTS_FAULT_INJECTOR_HH
#define SAM_FAULTS_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.hh"
#include "src/common/stats.hh"
#include "src/common/types.hh"
#include "src/dram/ras_hooks.hh"

namespace sam {

enum class FaultModel { None, Transient, StuckAt, Chipkill };

std::string faultModelName(FaultModel model);
FaultModel parseFaultModel(const std::string &name);

/** Configuration of the live fault source. */
struct FaultConfig
{
    FaultModel model = FaultModel::None;

    /** Transient: expected stored bit flips per million cycles. */
    double fitPerMcycle = 10.0;

    /** StuckAt: affected chip, per-read fault probability, bits. */
    unsigned stuckChip = 3;
    double stuckProbability = 0.05;
    unsigned stuckBits = 2;

    /** Chipkill: cycle at which the chip dies, and which chip. */
    Cycle chipkillAt = 0;
    unsigned chipkillChip = 5;

    std::uint64_t seed = 0xFA17;
};

/** Injection counters. */
struct FaultStats
{
    Counter storedFlips;  ///< Transient bits flipped in the store.
    Counter busFaults;    ///< Per-read (in-flight) corruptions.
    Counter chipKills;    ///< Whole-chip kill events (0 or 1).

    void registerIn(StatGroup &group) const;
};

class FaultInjector final : public FaultInjectionHook
{
  public:
    explicit FaultInjector(const FaultConfig &config);

    const FaultConfig &config() const { return config_; }
    const FaultStats &stats() const { return stats_; }

    /** Whether the configured chipkill has fired yet. */
    bool chipkillFired() const { return chipkillFired_; }

    // ----- FaultInjectionHook ---------------------------------------
    void tick(Cycle now, BackingStore &store,
              const EccEngine &ecc) override;
    bool beforeDecode(Addr line, std::vector<std::uint8_t> &blob,
                      const EccEngine &ecc) override;
    /**
     * No armed bus fault, and a model that does nothing per read:
     * None, Transient (its flips land in the store at tick()), or
     * Chipkill before the kill. StuckAt draws on every read.
     */
    bool leavesNextReadUntouched() const override;

    /**
     * Deterministic test hook: flip the given absolute blob bits on
     * each of the next `reads` read attempts (a transient bus fault a
     * retry can clear).
     */
    void armBusFault(std::vector<std::size_t> bits, unsigned reads);

  private:
    FaultConfig config_;
    Rng rng_;
    FaultStats stats_;

    Cycle lastTick_ = 0;
    double flipBudget_ = 0.0;   ///< Fractional pending transient flips.
    bool chipkillFired_ = false;

    std::vector<std::size_t> armedBits_;
    unsigned armedReads_ = 0;
};

} // namespace sam

#endif // SAM_FAULTS_FAULT_INJECTOR_HH
