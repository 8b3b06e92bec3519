/**
 * @file
 * Program-image tests (§5.4): the function information table plus
 * packed tables round-trip byte-exactly into working runtime tables,
 * and the loader rejects malformed blobs rather than crashing.
 */

#include <gtest/gtest.h>

#include "core/image.h"
#include "support/rng.h"
#include "ipds/detector.h"
#include "support/diag.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ipds {
namespace {

TEST(Image, RoundTripsEveryWorkload)
{
    for (const auto &wl : allWorkloads()) {
        CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
        std::vector<uint8_t> blob = buildImage(prog);
        ProgramImage img = loadImage(blob);

        ASSERT_EQ(img.functions.size(), prog.funcs.size()) << wl.name;
        for (size_t i = 0; i < prog.funcs.size(); i++) {
            const FuncTables &t = prog.funcs[i].tables;
            const FuncTables &u = img.tables[i];
            EXPECT_EQ(img.functions[i].entryPc,
                      prog.mod.functions[i].entryPc);
            EXPECT_EQ(u.hash.log2Space, t.hash.log2Space);
            EXPECT_EQ(u.bcv, t.bcv);
            ASSERT_EQ(u.onTaken.size(), t.onTaken.size());
            for (size_t s = 0; s < t.onTaken.size(); s++) {
                ASSERT_EQ(u.onTaken[s].size(), t.onTaken[s].size());
                for (size_t k = 0; k < t.onTaken[s].size(); k++) {
                    EXPECT_EQ(u.onTaken[s][k].slot,
                              t.onTaken[s][k].slot);
                    EXPECT_EQ(u.onTaken[s][k].act,
                              t.onTaken[s][k].act);
                }
            }
        }
    }
}

TEST(Image, LoadedTablesDriveTheDetectorIdentically)
{
    const Workload &wl = workloadByName("httpd");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    std::vector<uint8_t> blob = buildImage(prog);
    ProgramImage img = loadImage(blob);

    // Substitute the loaded tables into a second program instance and
    // check both benign cleanliness and attack detection.
    CompiledProgram reprog = compileAndAnalyze(wl.source, wl.name);
    for (size_t i = 0; i < reprog.funcs.size(); i++)
        reprog.funcs[i].tables = img.tables[i];

    {
        Vm vm(reprog.mod);
        vm.setInputs(wl.benignInputs);
        Detector det(reprog);
        vm.addObserver(&det);
        vm.run();
        EXPECT_FALSE(det.alarmed());
    }
    {
        Vm vm(reprog.mod);
        vm.setInputs(wl.benignInputs);
        Detector det(reprog);
        vm.addObserver(&det);
        TamperSpec spec;
        spec.randomStackTarget = false;
        spec.afterInputEvent = 4;
        spec.addr = vm.entryLocalAddr("maintenance");
        spec.bytes = {1, 0, 0, 0, 0, 0, 0, 0};
        vm.addTamper(spec);
        vm.run();
        EXPECT_TRUE(det.alarmed());
    }
}

TEST(Image, LoaderRejectsGarbage)
{
    EXPECT_THROW(loadImage({}), FatalError);
    EXPECT_THROW(loadImage({1, 2, 3, 4, 5, 6, 7, 8}), FatalError);

    // Valid header, truncated body.
    CompiledProgram prog = compileAndAnalyze(
        "void main() { int x; x = input_int(); "
        "if (x < 3) { print_int(x); } }", "t");
    std::vector<uint8_t> blob = buildImage(prog);
    std::vector<uint8_t> cut(blob.begin(),
                             blob.begin() + blob.size() / 2);
    EXPECT_THROW(loadImage(cut), FatalError);

    // Corrupt the magic.
    std::vector<uint8_t> bad = blob;
    bad[0] ^= 0xff;
    EXPECT_THROW(loadImage(bad), FatalError);
}

/**
 * Property: no corruption of a valid image can crash the loader — it
 * either loads (harmlessly different tables) or throws FatalError.
 * On the paper's hardware the image lives in protected memory, but a
 * robust loader must still never trust its contents.
 */
class ImageCorruptionFuzz : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ImageCorruptionFuzz, LoaderNeverCrashes)
{
    CompiledProgram prog = compileAndAnalyze(
        workloadByName("sendmail").source, "s");
    std::vector<uint8_t> blob = buildImage(prog);

    Rng rng(GetParam());
    for (int trial = 0; trial < 50; trial++) {
        std::vector<uint8_t> bad = blob;
        int flips = 1 + static_cast<int>(rng.below(8));
        for (int i = 0; i < flips; i++) {
            size_t pos = rng.below(bad.size());
            bad[pos] ^= static_cast<uint8_t>(1u << rng.below(8));
        }
        if (rng.chance(0.3))
            bad.resize(rng.below(bad.size() + 1)); // truncate too
        try {
            ProgramImage img = loadImage(bad);
            // Loaded: structural invariants must still hold.
            for (const auto &t : img.tables) {
                EXPECT_EQ(t.bcv.size(), t.hash.space());
                EXPECT_EQ(t.onTaken.size(), t.hash.space());
            }
        } catch (const FatalError &) {
            // Rejected cleanly: also fine.
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImageCorruptionFuzz,
                         ::testing::Range<uint64_t>(1, 7));

TEST(Image, SizesMatchFigure8Accounting)
{
    const Workload &wl = workloadByName("sendmail");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    std::vector<uint8_t> blob = buildImage(prog);
    // The blob must be in the same ballpark as the bit accounting
    // (packing adds parse preambles and byte padding).
    uint64_t accountedBits = prog.stats.totalBcvBits +
        prog.stats.totalBatBits;
    EXPECT_GT(blob.size() * 8, accountedBits);
    EXPECT_LT(blob.size() * 8, accountedBits * 3 + 4096);
}

} // namespace
} // namespace ipds
