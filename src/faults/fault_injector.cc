#include "src/faults/fault_injector.hh"

#include <utility>

#include "src/common/logging.hh"
#include "src/dram/backing_store.hh"
#include "src/ecc/ecc_engine.hh"

namespace sam {

std::string
faultModelName(FaultModel model)
{
    switch (model) {
      case FaultModel::None:      return "none";
      case FaultModel::Transient: return "transient";
      case FaultModel::StuckAt:   return "stuckat";
      case FaultModel::Chipkill:  return "chipkill";
    }
    panic("unknown FaultModel");
}

FaultModel
parseFaultModel(const std::string &name)
{
    for (FaultModel m : {FaultModel::None, FaultModel::Transient,
                         FaultModel::StuckAt, FaultModel::Chipkill}) {
        if (faultModelName(m) == name)
            return m;
    }
    fatal("unknown fault model '", name,
          "' (none, transient, stuckat, chipkill)");
}

void
FaultStats::registerIn(StatGroup &group) const
{
    group.addCounter("storedFlips", storedFlips,
                     "transient bits flipped in stored blobs");
    group.addCounter("busFaults", busFaults,
                     "in-flight read corruptions (bus/pin)");
    group.addCounter("chipKills", chipKills, "whole-chip kill events");
}

FaultInjector::FaultInjector(const FaultConfig &config)
    : config_(config), rng_(config.seed)
{
}

void
FaultInjector::tick(Cycle now, BackingStore &store, const EccEngine &ecc)
{
    if (now < lastTick_) {
        // A new run rewound the phase-1 clock; sticky state (a fired
        // chipkill, planted store faults) persists across runs.
        lastTick_ = now;
        return;
    }
    const Cycle dt = now - lastTick_;
    lastTick_ = now;

    switch (config_.model) {
      case FaultModel::None:
      case FaultModel::StuckAt:
        break;

      case FaultModel::Transient: {
        flipBudget_ += static_cast<double>(dt) *
                       config_.fitPerMcycle / 1e6;
        while (flipBudget_ >= 1.0 && store.lineCount() > 0) {
            flipBudget_ -= 1.0;
            const Addr victim = store.sampleLine(rng_);
            std::vector<std::uint8_t> mask(store.blobBytes(), 0);
            const std::size_t bit =
                rng_.below(std::uint64_t{store.blobBytes()} * 8);
            mask[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
            store.corruptLine(victim, mask);
            ++stats_.storedFlips;
        }
        break;
      }

      case FaultModel::Chipkill:
        if (!chipkillFired_ && now >= config_.chipkillAt) {
            sam_assert(config_.chipkillChip < ecc.numChips(),
                       "chipkill chip out of range");
            chipkillFired_ = true;
            ++stats_.chipKills;
        }
        break;
    }
}

bool
FaultInjector::beforeDecode(Addr line, std::vector<std::uint8_t> &blob,
                            const EccEngine &ecc)
{
    (void)line;
    bool touched = false;
    if (armedReads_ > 0) {
        for (std::size_t bit : armedBits_)
            EccEngine::flipBit(blob, bit);
        --armedReads_;
        ++stats_.busFaults;
        touched = true;
    }

    switch (config_.model) {
      case FaultModel::None:
      case FaultModel::Transient:
        break;

      case FaultModel::StuckAt:
        if (rng_.chance(config_.stuckProbability)) {
            ecc.corruptChipBits(blob, config_.stuckChip,
                                config_.stuckBits, rng_);
            ++stats_.busFaults;
            touched = true;
        }
        break;

      case FaultModel::Chipkill:
        if (chipkillFired_) {
            ecc.corruptChip(blob, config_.chipkillChip);
            touched = true;
        }
        break;
    }
    return touched;
}

bool
FaultInjector::leavesNextReadUntouched() const
{
    if (armedReads_ > 0)
        return false;
    switch (config_.model) {
      case FaultModel::None:
      case FaultModel::Transient:
        return true;
      case FaultModel::StuckAt:
        return false;
      case FaultModel::Chipkill:
        return !chipkillFired_;
    }
    panic("unknown FaultModel");
}

void
FaultInjector::armBusFault(std::vector<std::size_t> bits, unsigned reads)
{
    armedBits_ = std::move(bits);
    armedReads_ = reads;
}

} // namespace sam
