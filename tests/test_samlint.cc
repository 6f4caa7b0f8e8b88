/**
 * @file
 * samlint engine tests: each check fires on its bad fixture and stays
 * quiet on the matching ok fixture; NOLINT suppression, the
 * include-graph surface walk and the checks' directory scopes behave
 * as documented.
 */

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/samlint/checks.hh"
#include "tools/samlint/lexer.hh"

namespace {

using samlint::Finding;
using samlint::LintOptions;
using samlint::SourceFile;

std::string
fixture(const std::string &name)
{
    return std::string(SAM_SOURCE_DIR) + "/tools/samlint/fixtures/" +
           name;
}

SourceFile
lexFixture(const std::string &name)
{
    return samlint::lexFile(fixture(name),
                            "tools/samlint/fixtures/" + name);
}

/** Lex a fixture as if it lived at `path` (the src/-only checks). */
SourceFile
lexFixtureAs(const std::string &name, const std::string &path)
{
    return samlint::lexFile(fixture(name), path);
}

std::vector<Finding>
runOn(std::vector<SourceFile> files, const std::string &check = "")
{
    LintOptions opt;
    opt.allSurface = true;
    opt.root = SAM_SOURCE_DIR;
    if (!check.empty())
        opt.checks.push_back(check);
    return samlint::runChecks(files, opt);
}

std::set<std::string>
checksIn(const std::vector<Finding> &fs)
{
    std::set<std::string> out;
    for (const Finding &f : fs)
        out.insert(f.check);
    return out;
}

TEST(SamLintDeterminism, FlagsAmbientSourcesAndHashOrder)
{
    const auto fs = runOn({lexFixture("determinism_bad.cc")},
                          "sam-determinism");
    ASSERT_FALSE(fs.empty());
    EXPECT_EQ(checksIn(fs),
              std::set<std::string>{"sam-determinism"});
    const auto mentions = [&](const std::string &needle) {
        return std::any_of(fs.begin(), fs.end(),
                           [&](const Finding &f) {
                               return f.message.find(needle) !=
                                      std::string::npos;
                           });
    };
    EXPECT_TRUE(mentions("rand"));
    EXPECT_TRUE(mentions("steady_clock"));
    EXPECT_TRUE(mentions("system_clock"));
    EXPECT_TRUE(mentions("this_thread"));
    EXPECT_TRUE(mentions("getenv"));
    EXPECT_TRUE(mentions("hash order"));
    EXPECT_TRUE(mentions("keyed by pointer"));
}

TEST(SamLintDeterminism, KeyedAccessAndNolintAreClean)
{
    EXPECT_TRUE(runOn({lexFixture("determinism_ok.cc")},
                      "sam-determinism")
                    .empty());
}

TEST(SamLintCycle, FlagsForeignMutationAndClockDomainMix)
{
    const auto fs = runOn({lexFixture("engine/state.hh"),
                           lexFixture("engine/state.cc"),
                           lexFixture("cycle_bad.cc")},
                          "sam-cycle-accounting");
    // Assign + compound-assign + wall comparison in cycle_bad.cc;
    // nothing in the declaring directory's own mutator.
    ASSERT_EQ(fs.size(), 3u);
    for (const Finding &f : fs)
        EXPECT_EQ(f.path, "tools/samlint/fixtures/cycle_bad.cc");
    EXPECT_NE(fs[2].message.find("clock domains"), std::string::npos);
}

TEST(SamLintCycle, ReadsAndSameDirMutationsAreClean)
{
    EXPECT_TRUE(runOn({lexFixture("engine/state.hh"),
                       lexFixture("engine/state.cc"),
                       lexFixture("cycle_ok.cc")},
                      "sam-cycle-accounting")
                    .empty());
}

TEST(SamLintObserver, FlagsUnpairedAttachAndDeviceReachBack)
{
    const auto fs = runOn({lexFixture("observer_bad.cc")},
                          "sam-observer-discipline");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_NE(fs[0].message.find("removeCommandObserver"),
              std::string::npos);
    EXPECT_NE(fs[1].message.find("reaches back"), std::string::npos);
}

TEST(SamLintObserver, PairedRecordOnlyObserverIsClean)
{
    EXPECT_TRUE(runOn({lexFixture("observer_ok.cc")},
                      "sam-observer-discipline")
                    .empty());
}

TEST(SamLintLocking, FlagsRawStdPrimitives)
{
    const auto fs =
        runOn({lexFixture("locking_bad.cc")}, "sam-locking");
    ASSERT_FALSE(fs.empty());
    for (const Finding &f : fs)
        EXPECT_NE(f.message.find("sam::Mutex"), std::string::npos);
}

TEST(SamLintLocking, AnnotatedWrappersAreClean)
{
    EXPECT_TRUE(
        runOn({lexFixture("locking_ok.cc")}, "sam-locking").empty());
}

TEST(SamLintCodec, FlagsDirectConstructionAndOwnership)
{
    const auto fs = runOn({lexFixture("codec_bad.cc")},
                          "sam-codec-construction");
    // Global instance, optional<> member, unique_ptr<> member, local,
    // make_unique, and a GF256 instance declaration.
    ASSERT_EQ(fs.size(), 6u);
    EXPECT_EQ(checksIn(fs),
              std::set<std::string>{"sam-codec-construction"});
    EXPECT_NE(fs[0].message.find("CodecRegistry::reedSolomon"),
              std::string::npos);
    EXPECT_NE(fs.back().message.find("GF256"), std::string::npos);
}

TEST(SamLintCodec, BorrowedReferencesAndForwardDeclsAreClean)
{
    EXPECT_TRUE(runOn({lexFixture("codec_ok.cc")},
                      "sam-codec-construction")
                    .empty());
}

TEST(SamLintIncludeGuard, FlagsGuardsNotNamedForTheirPath)
{
    const auto fs =
        runOn({lexFixtureAs("guard_bad.hh", "src/fixtures/guard_bad.hh")},
              "sam-include-guard");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].line, 3u);
    EXPECT_NE(fs[0].message.find("should be 'SAM_FIXTURES_GUARD_BAD_HH'"),
              std::string::npos);
    // A missing guard and a #define that does not match are flagged too.
    const auto missing = runOn(
        {samlint::lexString("struct X {};\n", "src/fixtures/x.hh")},
        "sam-include-guard");
    ASSERT_EQ(missing.size(), 1u);
    EXPECT_NE(missing[0].message.find("missing"), std::string::npos);
    const auto mismatch = runOn({samlint::lexString(
                                    "#ifndef SAM_FIXTURES_X_HH\n"
                                    "#define SAM_FIXTURES_Y_HH\n"
                                    "#endif\n",
                                    "src/fixtures/x.hh")},
                                "sam-include-guard");
    ASSERT_EQ(mismatch.size(), 1u);
    EXPECT_NE(mismatch[0].message.find("does not match"),
              std::string::npos);
}

TEST(SamLintIncludeGuard, GuardNamedForItsPathIsClean)
{
    EXPECT_TRUE(
        runOn({lexFixtureAs("guard_ok.hh", "src/fixtures/guard_ok.hh")},
              "sam-include-guard")
            .empty());
    // The convention covers src/ headers only.
    EXPECT_TRUE(
        runOn({lexFixture("guard_bad.hh")}, "sam-include-guard").empty());
}

TEST(SamLintIncludePath, FlagsIncludesNotRelativeToRepoRoot)
{
    const auto fs =
        runOn({lexFixture("include_bad.cc")}, "sam-include-path");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].line, 3u);
    EXPECT_NE(fs[0].message.find("\"dram/device.hh\""),
              std::string::npos);
    EXPECT_NE(fs[1].message.find("\"checks.hh\""), std::string::npos);
}

TEST(SamLintIncludePath, RepoRootIncludesAreClean)
{
    EXPECT_TRUE(
        runOn({lexFixture("include_ok.cc")}, "sam-include-path").empty());
}

TEST(SamLintStats, FlagsUnregisteredCounter)
{
    const auto fs =
        runOn({lexFixtureAs("stats_bad.hh", "src/fixtures/stats_bad.hh")},
              "sam-stats-registration");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_NE(fs[0].message.find("BadStats::writes"), std::string::npos);
}

TEST(SamLintStats, RegistrationInTheImplementationIsClean)
{
    EXPECT_TRUE(
        runOn({lexFixtureAs("stats_ok.hh", "src/fixtures/stats_ok.hh"),
               lexFixtureAs("stats_ok.cc", "src/fixtures/stats_ok.cc")},
              "sam-stats-registration")
            .empty());
}

TEST(SamLintScope, CodeChecksSkipTestsButIncludePathDoesNot)
{
    const auto fs = runOn({samlint::lexString(
        "#include \"dram/device.hh\"\n"
        "std::mutex m;\n"
        "int f() { return std::rand(); }\n",
        "tests/x.cc")});
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].check, "sam-include-path");
}

TEST(SamLintLexer, NolintSuppressesOnlyNamedCheckOnTargetLine)
{
    const SourceFile f = samlint::lexString(
        "int a; // NOLINT(sam-locking)\n"
        "// NOLINTNEXTLINE(sam-determinism, sam-locking)\n"
        "int b;\n"
        "int c; // NOLINT\n",
        "x.cc");
    EXPECT_TRUE(f.suppressed(1, "sam-locking"));
    EXPECT_FALSE(f.suppressed(1, "sam-determinism"));
    EXPECT_TRUE(f.suppressed(3, "sam-determinism"));
    EXPECT_TRUE(f.suppressed(3, "sam-locking"));
    EXPECT_FALSE(f.suppressed(3, "sam-cycle-accounting"));
    EXPECT_TRUE(f.suppressed(4, "anything"));
    EXPECT_FALSE(f.suppressed(2, "sam-determinism"));
}

TEST(SamLintLexer, StripsLiteralsCommentsAndCapturesIncludes)
{
    const SourceFile f = samlint::lexString(
        "#include \"src/dram/device.hh\"\n"
        "#include <vector>\n"
        "const char *s = \"std::rand()\"; /* std::rand */\n"
        "char c = ':';\n",
        "x.cc");
    ASSERT_EQ(f.includes.size(), 1u);
    EXPECT_EQ(f.includes[0], "src/dram/device.hh");
    for (const samlint::Token &t : f.tokens)
        EXPECT_NE(t.text, "rand");
}

TEST(SamLintSurface, DeterminismOnlyFiresOnReachableFiles)
{
    // runner.cc -> src/sim/core.hh -> (stem pair) src/sim/core.cc,
    // while src/tools_like/offline.cc stays unreachable.
    SourceFile runner = samlint::lexString(
        "#include \"src/sim/core.hh\"\nint main() { return 0; }\n",
        "src/runner/main.cc");
    SourceFile coreHh = samlint::lexString(
        "struct Core { void step(); };\n", "src/sim/core.hh");
    SourceFile coreCc = samlint::lexString(
        "#include \"src/sim/core.hh\"\n"
        "#include <cstdlib>\n"
        "void stepImpl() { (void)std::rand(); }\n",
        "src/sim/core.cc");
    SourceFile offline = samlint::lexString(
        "#include <cstdlib>\n"
        "int offline() { return std::rand(); }\n",
        "src/tools_like/offline.cc");
    LintOptions opt;
    opt.checks.push_back("sam-determinism");
    const auto fs = samlint::runChecks(
        {runner, coreHh, coreCc, offline}, opt);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].path, "src/sim/core.cc");
}

} // namespace
