/**
 * @file
 * Golden command-stream pins for the phase-2 replay loop. Every design
 * runs every quick benchmark query (Q1..Q12, Qs1..Qs6) once with the
 * command trace captured, and the run's end cycle, command count, and
 * a digest of the whole command stream must equal the values recorded
 * in kPins. A chipkill run covers the RAS read path, a transient-fault
 * run covers reads that correct stored flips, and telemetry on vs off
 * is pinned cycle-identical.
 *
 * A failing case names its design and query and prints the actual row
 * in kPins syntax. A deliberate timing-model change re-records the
 * rows it moves; any other mismatch is a regression in the replay
 * loop, the controller, or the device.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "src/imdb/executor.hh"
#include "src/imdb/query.hh"
#include "src/sim/system.hh"
#include "src/sim/table_cache.hh"

namespace sam {
namespace {

SimConfig
smallConfig()
{
    SimConfig cfg;
    cfg.taRecords = 1024;
    cfg.tbRecords = 2048;
    cfg.collectStatsText = false;
    return cfg;
}

std::vector<Query>
allBenchmarkQueries()
{
    std::vector<Query> queries = benchmarkQQueries();
    const auto qs = benchmarkQsQueries();
    queries.insert(queries.end(), qs.begin(), qs.end());
    return queries;
}

/**
 * Shared pre-encoded table snapshots: every traced run starts from
 * identical bytes, and the suite does not pay a full table encode per
 * (design, query) case.
 */
std::shared_ptr<TableCache>
sharedTables()
{
    static auto cache = std::make_shared<TableCache>(1);
    return cache;
}

/**
 * Run one query on a fresh System with the full command trace
 * captured. Fresh per call: RAS error logs and fault-injector state
 * accumulate inside a System, and a pin must not depend on which case
 * ran before it.
 */
RunStats
runTraced(SimConfig cfg, const Query &query)
{
    cfg.telemetry.enabled = true;
    cfg.telemetry.commandTrace = true;
    System sys(cfg, sharedTables());
    return sys.runQuery(query);
}

/** What a pin records about one run. */
struct StreamSummary
{
    Cycle cycles = 0;
    std::uint64_t commands = 0;
    std::uint64_t digest = 0;

    bool operator==(const StreamSummary &) const = default;
};

/** 64-bit FNV-1a, fed little-endian 64-bit words. */
class Fnv1a
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Digest of each traced command's kind, cycle, mode, and address. */
StreamSummary
summarize(const RunStats &rs)
{
    StreamSummary s;
    s.cycles = rs.cycles;
    Fnv1a h;
    for (const Command &c : rs.telemetry->commands) {
        h.add(static_cast<std::uint64_t>(c.kind));
        h.add(c.at);
        h.add(static_cast<std::uint64_t>(c.mode));
        h.add(c.addr.channel);
        h.add(c.addr.rank);
        h.add(c.addr.bankGroup);
        h.add(c.addr.bank);
        h.add(c.addr.row);
        h.add(c.addr.column);
    }
    s.commands = rs.telemetry->commands.size();
    s.digest = h.value();
    return s;
}

/** One pinned case: a design and a query (plus fault tag, if any). */
struct Pin
{
    const char *design;
    const char *query;
    StreamSummary expect;
};

/** The row `s` would occupy in kPins. */
std::string
pinRow(const std::string &design, const std::string &query,
       const StreamSummary &s)
{
    std::ostringstream os;
    os << "{\"" << design << "\", \"" << query << "\", {" << s.cycles
       << ", " << s.commands << ", 0x" << std::hex << std::setw(16)
       << std::setfill('0') << s.digest << "ull}},";
    return os.str();
}

// Recorded from the replay loop that this suite guards; see the file
// comment for when a row may change.
const Pin kPins[] = {
    {"baseline", "Q1", {6815, 1494, 0xfdfb279419141f29ull}},
    {"baseline", "Q2", {12872, 2122, 0xee77ea71352f75c8ull}},
    {"baseline", "Q3", {6133, 1248, 0xa02780aa882d9665ull}},
    {"baseline", "Q4", {12770, 2097, 0xf5a6f53fb4c43342ull}},
    {"baseline", "Q5", {6807, 1494, 0x9477fc021285408cull}},
    {"baseline", "Q6", {15524, 2594, 0x76d740d68bb5a970ull}},
    {"baseline", "Q7", {22653, 4042, 0x71879267ceb43906ull}},
    {"baseline", "Q8", {22704, 4044, 0xc7078413b2983f68ull}},
    {"baseline", "Q9", {8611, 1779, 0x1ddcabd2b0041552ull}},
    {"baseline", "Q10", {6037, 1248, 0xc6a229882cde20a1ull}},
    {"baseline", "Q11", {18395, 3142, 0xc8e91b1fbf0020a2ull}},
    {"baseline", "Q12", {17269, 2975, 0x4dc0917cebb49e3aull}},
    {"baseline", "Qs1", {102867, 16715, 0x7816e48a9be3a020ull}},
    {"baseline", "Qs2", {12776, 2085, 0xa36286cc02e3db77ull}},
    {"baseline", "Qs3", {26718, 4962, 0xc255a2546e8aeba4ull}},
    {"baseline", "Qs4", {15476, 2593, 0xe70f4e6db2b9fa8dull}},
    {"baseline", "Qs5", {15581, 2064, 0x1de2c3541b13d641ull}},
    {"baseline", "Qs6", {4191, 516, 0x1e1ebbc46940a43dull}},
    {"RC-NVM-bit", "Q1", {3438, 551, 0x26459a0d8f5ac3ceull}},
    {"RC-NVM-bit", "Q2", {5376, 693, 0x9a59040b7efc4320ull}},
    {"RC-NVM-bit", "Q3", {2329, 373, 0x7b401dc76e0a83e6ull}},
    {"RC-NVM-bit", "Q4", {4537, 747, 0x8799b200b569c251ull}},
    {"RC-NVM-bit", "Q5", {2329, 373, 0xd7384847674d8892ull}},
    {"RC-NVM-bit", "Q6", {4537, 747, 0xa0a54fcfdd450d2dull}},
    {"RC-NVM-bit", "Q7", {21501, 2107, 0xa6e5b55f20f537f3ull}},
    {"RC-NVM-bit", "Q8", {18596, 1832, 0xc6c1e72673883022ull}},
    {"RC-NVM-bit", "Q9", {4654, 747, 0x2cd7588013fa769bull}},
    {"RC-NVM-bit", "Q10", {4691, 753, 0x660cef2b292f9985ull}},
    {"RC-NVM-bit", "Q11", {11901, 1803, 0xe70638cc419f5019ull}},
    {"RC-NVM-bit", "Q12", {7137, 1096, 0x2342c7bea30a5325ull}},
    {"RC-NVM-bit", "Qs1", {156172, 18430, 0xe3ed61c4cf6a6e97ull}},
    {"RC-NVM-bit", "Qs2", {32789, 4094, 0xcdf8bda8701b3252ull}},
    {"RC-NVM-bit", "Qs3", {69299, 6760, 0x4d0f0f963ec4d7c3ull}},
    {"RC-NVM-bit", "Qs4", {63640, 6642, 0x72e2e052001ce4f1ull}},
    {"RC-NVM-bit", "Qs5", {40474, 2303, 0x53fe3f56ed23a902ull}},
    {"RC-NVM-bit", "Qs6", {51866, 1023, 0xa418990cd6358da6ull}},
    {"RC-NVM-wd", "Q1", {2379, 371, 0x7ffd9734a3152f86ull}},
    {"RC-NVM-wd", "Q2", {5091, 547, 0x322ce8dd51653482ull}},
    {"RC-NVM-wd", "Q3", {1611, 251, 0x89b37b565f776b57ull}},
    {"RC-NVM-wd", "Q4", {3081, 502, 0x673a4fb2ef7857d4ull}},
    {"RC-NVM-wd", "Q5", {1611, 251, 0x0d0f0c26cf9374e7ull}},
    {"RC-NVM-wd", "Q6", {3081, 502, 0x4c9708830a061a8dull}},
    {"RC-NVM-wd", "Q7", {22927, 1839, 0x5936d673da4e6b83ull}},
    {"RC-NVM-wd", "Q8", {19634, 1582, 0xba35d8d0b7346461ull}},
    {"RC-NVM-wd", "Q9", {3218, 503, 0x73a2d5bb441ba7d9ull}},
    {"RC-NVM-wd", "Q10", {3243, 507, 0x6099ae5748cba612ull}},
    {"RC-NVM-wd", "Q11", {8358, 1209, 0x604ea5196cd0d050ull}},
    {"RC-NVM-wd", "Q12", {4985, 735, 0x64e46d246e7510e7ull}},
    {"RC-NVM-wd", "Qs1", {156172, 18430, 0x0c1c5734cfe05ca3ull}},
    {"RC-NVM-wd", "Qs2", {37907, 4094, 0xb75c0d1d01b63fbeull}},
    {"RC-NVM-wd", "Qs3", {77514, 6760, 0xd9163d8900c92cb5ull}},
    {"RC-NVM-wd", "Qs4", {74367, 6642, 0x333fbd6cad7548aeull}},
    {"RC-NVM-wd", "Qs5", {44164, 2303, 0x5dd1ff2d6cb30a37ull}},
    {"RC-NVM-wd", "Qs6", {59268, 1023, 0x169cf81af84d8bd3ull}},
    {"GS-DRAM", "Q1", {1927, 584, 0x541b4a774f541f9full}},
    {"GS-DRAM", "Q2", {1645, 338, 0xdbcaa11f07c0788eull}},
    {"GS-DRAM", "Q3", {1315, 468, 0x5b4f3aa1e6505e7aull}},
    {"GS-DRAM", "Q4", {2883, 521, 0x3eba3e8272195e3full}},
    {"GS-DRAM", "Q5", {1315, 468, 0xd26288d99abd905aull}},
    {"GS-DRAM", "Q6", {2883, 521, 0x74f29475857af677ull}},
    {"GS-DRAM", "Q7", {4988, 1151, 0xfcb3899bcf47a4a2ull}},
    {"GS-DRAM", "Q8", {4839, 1103, 0x95abe0d30c18321bull}},
    {"GS-DRAM", "Q9", {2629, 712, 0xd3737a13e0cbafdaull}},
    {"GS-DRAM", "Q10", {2773, 716, 0x6b3b05934f2666a6ull}},
    {"GS-DRAM", "Q11", {7447, 1220, 0x27ebcf92abe1191dull}},
    {"GS-DRAM", "Q12", {4508, 754, 0x4fd334f8dd8703fcull}},
    {"GS-DRAM", "Qs1", {102867, 16715, 0x2cb5db68e0c6c31eull}},
    {"GS-DRAM", "Qs2", {12776, 2085, 0xda69c494b3b74cf3ull}},
    {"GS-DRAM", "Qs3", {26718, 4962, 0xc3206fe41125fca1ull}},
    {"GS-DRAM", "Qs4", {15476, 2593, 0xcc72d5d0a8d2e7b3ull}},
    {"GS-DRAM", "Qs5", {15581, 2064, 0xf1e8649d47499c41ull}},
    {"GS-DRAM", "Qs6", {4191, 516, 0x6a9b340e4e0c673dull}},
    {"GS-DRAM-ecc", "Q1", {3391, 828, 0x6acd1a7257c08f95ull}},
    {"GS-DRAM-ecc", "Q2", {3339, 618, 0xbfffd25db6dd07a5ull}},
    {"GS-DRAM-ecc", "Q3", {2071, 596, 0xbd484d0af1706f8full}},
    {"GS-DRAM-ecc", "Q4", {5813, 1010, 0x295e73630d03255eull}},
    {"GS-DRAM-ecc", "Q5", {2767, 712, 0xadc4624b7da5955cull}},
    {"GS-DRAM-ecc", "Q6", {5813, 1010, 0x896b3edbced1e8feull}},
    {"GS-DRAM-ecc", "Q7", {8532, 1778, 0x074c07092b8838eeull}},
    {"GS-DRAM-ecc", "Q8", {8418, 1729, 0x38839206e0b823a8ull}},
    {"GS-DRAM-ecc", "Q9", {4151, 968, 0x4846465cdfecbc10ull}},
    {"GS-DRAM-ecc", "Q10", {3545, 844, 0x78457a70d6c0e5f1ull}},
    {"GS-DRAM-ecc", "Q11", {15009, 2470, 0x09ae1c73d310047full}},
    {"GS-DRAM-ecc", "Q12", {8802, 1476, 0xad4d45ca93817f7bull}},
    {"GS-DRAM-ecc", "Qs1", {206194, 33220, 0x01b6c81f29e81349ull}},
    {"GS-DRAM-ecc", "Qs2", {14312, 2337, 0xc3f091efc3a4e358ull}},
    {"GS-DRAM-ecc", "Qs3", {51145, 9047, 0x3125f572253647f1ull}},
    {"GS-DRAM-ecc", "Qs4", {18408, 3080, 0xc35239914cf8eeddull}},
    {"GS-DRAM-ecc", "Qs5", {29405, 4368, 0x6ed99b7a5a415a12ull}},
    {"GS-DRAM-ecc", "Qs6", {7647, 1092, 0x9f58dd4564d522a9ull}},
    {"SAM-sub", "Q1", {2326, 371, 0x6556cdf46db20a6bull}},
    {"SAM-sub", "Q2", {4440, 541, 0x84b98c41722bdb42ull}},
    {"SAM-sub", "Q3", {1570, 251, 0xdcaec6af32d72946ull}},
    {"SAM-sub", "Q4", {3040, 502, 0x98b7d199d5ec36a5ull}},
    {"SAM-sub", "Q5", {1570, 251, 0x8f8871bf07cc630aull}},
    {"SAM-sub", "Q6", {3040, 502, 0xaad58158ccd9eb9cull}},
    {"SAM-sub", "Q7", {23036, 1843, 0x106aac9e3be5d079ull}},
    {"SAM-sub", "Q8", {19881, 1587, 0x748c7ecfa5d6bc47ull}},
    {"SAM-sub", "Q9", {3153, 503, 0xd22dd97330272125ull}},
    {"SAM-sub", "Q10", {3178, 507, 0x1ab8be64289b4a10ull}},
    {"SAM-sub", "Q11", {7915, 1209, 0x870b41ed27056176ull}},
    {"SAM-sub", "Q12", {4749, 735, 0xa91de4e020078e2eull}},
    {"SAM-sub", "Qs1", {162036, 18511, 0x33714504e6ef630bull}},
    {"SAM-sub", "Qs2", {32180, 4107, 0x0794f0d876c935e7ull}},
    {"SAM-sub", "Qs3", {77919, 6793, 0xd94216dc8bd6f9abull}},
    {"SAM-sub", "Qs4", {74762, 6659, 0x2723924e6a1c9199ull}},
    {"SAM-sub", "Qs5", {25621, 2307, 0xb8c523d99144ea53ull}},
    {"SAM-sub", "Qs6", {20644, 1024, 0x894851e2f298d9d3ull}},
    {"SAM-IO", "Q1", {1951, 586, 0x3046f1f2a9263e6bull}},
    {"SAM-IO", "Q2", {1679, 409, 0x29b2269a972ce380ull}},
    {"SAM-IO", "Q3", {1315, 470, 0xc224b8896650cd52ull}},
    {"SAM-IO", "Q4", {2889, 523, 0x21aaafe2b07cedc3ull}},
    {"SAM-IO", "Q5", {1315, 470, 0x692a17745e9cf35aull}},
    {"SAM-IO", "Q6", {2889, 523, 0x1a0b64e5e8aed7f2ull}},
    {"SAM-IO", "Q7", {4996, 1306, 0x6dc05cf28d8efc68ull}},
    {"SAM-IO", "Q8", {5023, 1256, 0x0278cb8ffc6d91b4ull}},
    {"SAM-IO", "Q9", {2631, 714, 0xcb51a3dfcb8db1a9ull}},
    {"SAM-IO", "Q10", {2779, 718, 0xe5ec38027e739e34ull}},
    {"SAM-IO", "Q11", {7457, 1222, 0xd680c012b9f34228ull}},
    {"SAM-IO", "Q12", {4518, 756, 0xb30c6e76f2d01538ull}},
    {"SAM-IO", "Qs1", {102867, 16715, 0xbbcd7c33e3a900a0ull}},
    {"SAM-IO", "Qs2", {12776, 2085, 0xb150ab4431e972f7ull}},
    {"SAM-IO", "Qs3", {26718, 4962, 0x4df8b9f3e4eda124ull}},
    {"SAM-IO", "Qs4", {15476, 2593, 0x249f7c614035688dull}},
    {"SAM-IO", "Qs5", {15581, 2064, 0xaa2efe027c9ba341ull}},
    {"SAM-IO", "Qs6", {4191, 516, 0x92e1f42c83feb23dull}},
    {"SAM-en", "Q1", {1923, 586, 0xac7406622123c475ull}},
    {"SAM-en", "Q2", {1641, 413, 0x92671664491750a0ull}},
    {"SAM-en", "Q3", {1309, 470, 0x85991a0e512d177aull}},
    {"SAM-en", "Q4", {2885, 523, 0x69d6820e823f9587ull}},
    {"SAM-en", "Q5", {1309, 470, 0x7e14bc4f2f1b47baull}},
    {"SAM-en", "Q6", {2885, 523, 0xd188c40115800046ull}},
    {"SAM-en", "Q7", {5121, 1306, 0xd66e164d1fb61602ull}},
    {"SAM-en", "Q8", {5018, 1244, 0xff2c6e823c2a7425ull}},
    {"SAM-en", "Q9", {2631, 714, 0x82251a1262658447ull}},
    {"SAM-en", "Q10", {2775, 718, 0x4c4768af2625f01cull}},
    {"SAM-en", "Q11", {7449, 1222, 0x62e63aa5c153bad3ull}},
    {"SAM-en", "Q12", {4510, 756, 0x0c7f28947ac86f58ull}},
    {"SAM-en", "Qs1", {102867, 16715, 0xbbcd7c33e3a900a0ull}},
    {"SAM-en", "Qs2", {12776, 2085, 0xb150ab4431e972f7ull}},
    {"SAM-en", "Qs3", {26718, 4962, 0x4df8b9f3e4eda124ull}},
    {"SAM-en", "Qs4", {15476, 2593, 0x249f7c614035688dull}},
    {"SAM-en", "Qs5", {15581, 2064, 0xaa2efe027c9ba341ull}},
    {"SAM-en", "Qs6", {4191, 516, 0x92e1f42c83feb23dull}},
    {"ideal", "Q1", {2292, 363, 0x4ec4907208592308ull}},
    {"ideal", "Q2", {4572, 677, 0x0506cd1aa30623eeull}},
    {"ideal", "Q3", {1555, 246, 0xf5140d5e3dcef413ull}},
    {"ideal", "Q4", {3011, 493, 0xd534aaa0425799e3ull}},
    {"ideal", "Q5", {1555, 246, 0x81c251831973ec2dull}},
    {"ideal", "Q6", {3011, 493, 0x2bd547c6b75d44ecull}},
    {"ideal", "Q7", {4445, 727, 0xe0567d6d93eedb63ull}},
    {"ideal", "Q8", {3738, 649, 0x9d4e0c34b767158aull}},
    {"ideal", "Q9", {3101, 492, 0x171491593d8465d8ull}},
    {"ideal", "Q10", {3127, 496, 0x989f9ed48e1d274eull}},
    {"ideal", "Q11", {6793, 1194, 0xa066c856d4c4035cull}},
    {"ideal", "Q12", {4010, 726, 0xa579c35d030a84b9ull}},
    {"ideal", "Qs1", {102867, 16715, 0x7816e48a9be3a020ull}},
    {"ideal", "Qs2", {12776, 2085, 0xa36286cc02e3db77ull}},
    {"ideal", "Qs3", {26718, 4962, 0xc255a2546e8aeba4ull}},
    {"ideal", "Qs4", {15476, 2593, 0xe70f4e6db2b9fa8dull}},
    {"ideal", "Qs5", {15581, 2064, 0x1de2c3541b13d641ull}},
    {"ideal", "Qs6", {4191, 516, 0x1e1ebbc46940a43dull}},
    {"SAM-en", "Q3 chipkill@50", {14178, 2529, 0x38f325c39be74278ull}},
    {"SAM-en", "Q1 transient@1e5", {2003, 602, 0x0e615bde6d3f10bdull}},
};

void
expectPinned(const std::string &design, const std::string &query,
             const RunStats &rs)
{
    const std::string where = design + " " + query;
    ASSERT_NE(rs.telemetry, nullptr) << where;
    ASSERT_EQ(rs.telemetry->droppedCommands, 0u)
        << where << ": command trace overflowed";
    const StreamSummary actual = summarize(rs);
    for (const Pin &p : kPins) {
        if (design == p.design && query == p.query) {
            EXPECT_TRUE(actual == p.expect)
                << where << ": command stream diverged from its pin\n"
                << "  pinned " << pinRow(design, query, p.expect)
                << "\n  actual " << pinRow(design, query, actual);
            return;
        }
    }
    ADD_FAILURE() << where << ": no pin; actual "
                  << pinRow(design, query, actual);
}

// --------------------------------------------------------------------
// Every design x every benchmark query
// --------------------------------------------------------------------

class ReplayGoldenTest : public ::testing::TestWithParam<DesignKind>
{
};

TEST_P(ReplayGoldenTest, CommandStreamsMatchPins)
{
    SimConfig cfg = smallConfig();
    cfg.design = GetParam();
    for (const Query &q : allBenchmarkQueries())
        expectPinned(designName(GetParam()), q.name, runTraced(cfg, q));
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, ReplayGoldenTest,
    ::testing::Values(DesignKind::Baseline, DesignKind::RcNvmBit,
                      DesignKind::RcNvmWord, DesignKind::GsDram,
                      DesignKind::GsDramEcc, DesignKind::SamSub,
                      DesignKind::SamIo, DesignKind::SamEn,
                      DesignKind::Ideal),
    [](const ::testing::TestParamInfo<DesignKind> &info) {
        std::string name = designName(info.param);
        std::erase(name, '-');
        return name;
    });

// --------------------------------------------------------------------
// Fault paths: RAS retries, scrub writebacks, and retirement
// --------------------------------------------------------------------

TEST(ReplayGoldenFaults, ChipkillAtCycle50MatchesPin)
{
    SimConfig cfg = smallConfig();
    cfg.design = DesignKind::SamEn;
    cfg.faults.model = FaultModel::Chipkill;
    // Cycle 50 lands mid-query at this table scale: reads before it
    // are clean, everything after reconstructs the dead chip.
    cfg.faults.chipkillAt = 50;
    cfg.faults.chipkillChip = 5;
    const RunStats rs = runTraced(cfg, benchmarkQQueries()[2]);
    expectPinned("SAM-en", "Q3 chipkill@50", rs);
    // The fault fired, so the pin covers the RAS read path.
    EXPECT_GT(rs.eccCorrectedLines + rs.eccUncorrectable, 0u);
}

TEST(ReplayGoldenFaults, TransientFaultsMatchPin)
{
    // 1e5 flips per Mcycle lands stored flips inside this short run on
    // an ECC-protected design, so the pin covers reads that decode a
    // flipped line, not just an armed injector that fires nothing.
    SimConfig cfg = smallConfig();
    cfg.design = DesignKind::SamEn;
    cfg.faults.model = FaultModel::Transient;
    cfg.faults.fitPerMcycle = 1e5;
    const RunStats rs = runTraced(cfg, benchmarkQQueries()[0]);
    expectPinned("SAM-en", "Q1 transient@1e5", rs);
    EXPECT_GT(rs.eccCorrectedLines + rs.eccUncorrectable, 0u);
}

// --------------------------------------------------------------------
// Telemetry must be a pure observer: enabling it cannot move cycles
// --------------------------------------------------------------------

void
expectSameStats(const RunStats &a, const RunStats &b,
                const std::string &label)
{
    EXPECT_TRUE(a.result == b.result) << label;
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.memReads, b.memReads) << label;
    EXPECT_EQ(a.memWrites, b.memWrites) << label;
    EXPECT_EQ(a.strideReads, b.strideReads) << label;
    EXPECT_EQ(a.strideWrites, b.strideWrites) << label;
    EXPECT_EQ(a.activates, b.activates) << label;
    EXPECT_EQ(a.rowHits, b.rowHits) << label;
    EXPECT_EQ(a.rowMisses, b.rowMisses) << label;
    EXPECT_EQ(a.modeSwitches, b.modeSwitches) << label;
    EXPECT_EQ(a.eccCorrectedLines, b.eccCorrectedLines) << label;
    EXPECT_EQ(a.eccUncorrectable, b.eccUncorrectable) << label;
    EXPECT_EQ(a.checkedCommands, b.checkedCommands) << label;
    EXPECT_EQ(a.scrubWritebacks, b.scrubWritebacks) << label;
    EXPECT_EQ(a.readRetries, b.readRetries) << label;
    EXPECT_EQ(a.poisonedReads, b.poisonedReads) << label;
    EXPECT_EQ(a.linesRetired, b.linesRetired) << label;
}

TEST(ReplayGoldenTelemetry, TelemetryOnVsOffIsCycleIdentical)
{
    SimConfig base = smallConfig();
    base.design = DesignKind::SamEn;
    for (const Query &q : allBenchmarkQueries()) {
        SimConfig on = base;
        on.telemetry.enabled = true;
        on.telemetry.commandTrace = true;
        SimConfig off = base;
        off.telemetry.enabled = false;
        System sysOn(on);
        System sysOff(off);
        const RunStats rOn = sysOn.runQuery(q);
        const RunStats rOff = sysOff.runQuery(q);
        expectSameStats(rOn, rOff, "telemetry on/off " + q.name);
        EXPECT_EQ(rOff.telemetry, nullptr);
    }
}

} // namespace
} // namespace sam
