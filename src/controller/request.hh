/**
 * @file
 * Memory requests exchanged between the cache hierarchy / query engine
 * and the memory controller.
 */

#ifndef SAM_CONTROLLER_REQUEST_HH
#define SAM_CONTROLLER_REQUEST_HH

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/logging.hh"
#include "src/common/types.hh"
#include "src/dram/data_path.hh"
#include "src/dram/device.hh"

namespace sam {

/**
 * The request types visible above the controller. StrideRead and
 * StrideWrite correspond to the paper's sload / sstore ISA extension
 * (Section 5.1.2); the request type is how the "instruction" informs
 * the controller to drive the stride mode.
 */
enum class AccessType { Read, Write, StrideRead, StrideWrite };

inline bool
isWrite(AccessType t)
{
    return t == AccessType::Write || t == AccessType::StrideWrite;
}

inline bool
isStride(AccessType t)
{
    return t == AccessType::StrideRead || t == AccessType::StrideWrite;
}

/**
 * Upper bound on source lines of one request: the widest stride gather
 * is G = 64B / 8B = 8 lines (SscDsd's 4-bit granularity). Requests are
 * moved through the controller's queues by value, so the inline list
 * holds no more than that.
 */
constexpr unsigned kMaxGatherLines = 8;

/** One line-granular (or stride-line-granular) memory request. */
struct MemRequest
{
    AccessType type = AccessType::Read;

    /**
     * Line address for regular accesses; gather-group base address
     * (aligned to G lines) for stride accesses.
     */
    Addr addr = 0;

    /** Chunk slot within each source line for stride accesses. */
    unsigned sector = 0;

    /** Write payload (64B) for Write / StrideWrite. */
    std::vector<std::uint8_t> writeData;

    /**
     * RAS demand-scrub writeback: timing-only, carries no payload (the
     * DataPath already healed the backing store when it corrected the
     * line); it still occupies the write queue and the bus.
     */
    bool isScrub = false;

    Cycle arrival = 0;
    unsigned coreId = 0;
    std::uint64_t id = 0;

    // ----- Filled by the design model before enqueue --------------
    /** Timing view: the device access this request performs. */
    DeviceAccess device;
    /**
     * Functional view: source lines (1 for regular, G for stride),
     * stored inline so a request never heap-allocates for its line
     * list. Only the first `gatherCount` slots are meaningful.
     */
    std::array<Addr, kMaxGatherLines> gatherLines{};
    std::uint8_t gatherCount = 0;
    /** Stride chunk size in bytes (unused for regular accesses). */
    unsigned strideUnit = 0;

    void setLine(Addr line)
    {
        gatherLines[0] = line;
        gatherCount = 1;
    }

    void setLines(const Addr *lines, std::size_t count)
    {
        sam_assert(count > 0 && count <= kMaxGatherLines,
                   "gather of ", count, " lines exceeds request inline "
                   "capacity");
        for (std::size_t i = 0; i < count; ++i)
            gatherLines[i] = lines[i];
        gatherCount = static_cast<std::uint8_t>(count);
    }
};

/** Completion record returned by the controller. */
struct Completion
{
    std::uint64_t id = 0;
    unsigned coreId = 0;
    Cycle done = 0;
    bool isRead = false;
    /** ECC flags of a functional read (timing-only: all clear). */
    ReadFlags flags;
    /** The 64 data bytes of a functional read (timing-only: zero). */
    std::array<std::uint8_t, kCachelineBytes> data{};
};

} // namespace sam

#endif // SAM_CONTROLLER_REQUEST_HH
