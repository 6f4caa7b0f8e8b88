/**
 * @file
 * google-benchmark microbenchmarks for the ECC stack: Reed-Solomon
 * encode/decode throughput per chipkill geometry, SEC-DED, and the
 * rank-level ECC engine on clean and chip-failed lines. Decode loops
 * restore their input with a copy into a preallocated buffer, so the
 * numbers time the decoder, not the allocator.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "src/common/random.hh"
#include "src/ecc/ecc_engine.hh"
#include "src/ecc/reed_solomon.hh"
#include "src/ecc/secded.hh"

namespace {

using namespace sam;

void
BM_RsEncode(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const unsigned k = static_cast<unsigned>(state.range(1));
    const ReedSolomon rs(n, k);
    Rng rng(1);
    std::vector<std::uint8_t> data(k);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    for (auto _ : state) {
        auto cw = rs.encode(data);
        benchmark::DoNotOptimize(cw);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            k);
}
BENCHMARK(BM_RsEncode)->Args({18, 16})->Args({36, 32})->Args({72, 64});

void
BM_RsDecodeClean(benchmark::State &state)
{
    const ReedSolomon rs(static_cast<unsigned>(state.range(0)),
                         static_cast<unsigned>(state.range(1)));
    Rng rng(2);
    std::vector<std::uint8_t> data(rs.k());
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    const auto cw = rs.encode(data);
    auto c = cw;
    for (auto _ : state) {
        std::copy(cw.begin(), cw.end(), c.begin());
        benchmark::DoNotOptimize(rs.decode(c));
    }
}
BENCHMARK(BM_RsDecodeClean)->Args({18, 16})->Args({36, 32});

/**
 * RS(n, k) decode of a word with `errors` symbol errors (third arg):
 * one error takes the closed-form path, t errors take
 * Berlekamp-Massey, Chien and Forney.
 */
void
BM_RsDecodeCorrect(benchmark::State &state)
{
    const ReedSolomon rs(static_cast<unsigned>(state.range(0)),
                         static_cast<unsigned>(state.range(1)));
    const auto errors = static_cast<unsigned>(state.range(2));
    Rng rng(3);
    std::vector<std::uint8_t> data(rs.k());
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    auto cw = rs.encode(data);
    for (unsigned e = 0; e < errors; ++e)
        cw[5 + 7 * e] ^= static_cast<std::uint8_t>(0x5a + e);
    auto c = cw;
    for (auto _ : state) {
        std::copy(cw.begin(), cw.end(), c.begin());
        benchmark::DoNotOptimize(rs.decode(c));
    }
}
BENCHMARK(BM_RsDecodeCorrect)
    ->Args({18, 16, 1})
    ->Args({36, 32, 1})
    ->Args({36, 32, 2})
    ->Args({72, 64, 1})
    ->Args({72, 64, 4});

void
BM_SecDedEncode(benchmark::State &state)
{
    std::uint64_t data = 0x123456789abcdef0ULL;
    for (auto _ : state) {
        benchmark::DoNotOptimize(SecDed::encode(data));
        data = data * 6364136223846793005ULL + 1;
    }
}
BENCHMARK(BM_SecDedEncode);

void
BM_EccEngineLine(benchmark::State &state)
{
    const auto scheme = static_cast<EccScheme>(state.range(0));
    const EccEngine engine(scheme);
    Rng rng(4);
    std::vector<std::uint8_t> line(kCachelineBytes);
    for (auto &b : line)
        b = static_cast<std::uint8_t>(rng.below(256));
    const auto blob = engine.encodeLine(line);
    auto b = blob;
    for (auto _ : state) {
        std::copy(blob.begin(), blob.end(), b.begin());
        benchmark::DoNotOptimize(engine.decodeLine(b));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kCachelineBytes);
}
BENCHMARK(BM_EccEngineLine)
    ->Arg(static_cast<int>(EccScheme::SecDed))
    ->Arg(static_cast<int>(EccScheme::Ssc))
    ->Arg(static_cast<int>(EccScheme::SscDsd));

/** decodeLine of a line read through dead chip 7 under `scheme`. */
void
decodeDeadChipLine(benchmark::State &state, EccScheme scheme)
{
    const EccEngine engine(scheme);
    Rng rng(5);
    std::vector<std::uint8_t> line(kCachelineBytes);
    for (auto &b : line)
        b = static_cast<std::uint8_t>(rng.below(256));
    auto blob = engine.encodeLine(line);
    engine.corruptChip(blob, 7);
    auto b = blob;
    for (auto _ : state) {
        std::copy(blob.begin(), blob.end(), b.begin());
        benchmark::DoNotOptimize(engine.decodeLine(b));
    }
}

/** The SSC-DSD chipkill read, the default scheme's correcting path. */
void
BM_EccEngineChipkillCorrection(benchmark::State &state)
{
    decodeDeadChipLine(state, EccScheme::SscDsd);
}
BENCHMARK(BM_EccEngineChipkillCorrection);

/**
 * Every chip-tolerant scheme's chipkill read (arg: EccScheme). SSC,
 * SSC-32 and SSC-DSD correct one symbol per codeword in closed form;
 * Bamboo-72 corrects four symbols of one codeword through
 * Berlekamp-Massey.
 */
void
BM_EccEngineChipCorrection(benchmark::State &state)
{
    decodeDeadChipLine(state, static_cast<EccScheme>(state.range(0)));
}
BENCHMARK(BM_EccEngineChipCorrection)
    ->Arg(static_cast<int>(EccScheme::Ssc))
    ->Arg(static_cast<int>(EccScheme::Ssc32))
    ->Arg(static_cast<int>(EccScheme::SscDsd))
    ->Arg(static_cast<int>(EccScheme::Bamboo72));

} // namespace

BENCHMARK_MAIN();
