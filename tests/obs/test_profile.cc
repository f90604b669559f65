/** @file Tests for scoped profiling timers. */

#include <gtest/gtest.h>

#include <sstream>

#include "exec/parallel.hh"
#include "obs/obs.hh"

namespace tts {
namespace obs {
namespace {

class ProfileTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setEnabled(false);
        resetForTest();
    }
    void TearDown() override
    {
        setEnabled(false);
        resetForTest();
    }
};

TEST_F(ProfileTest, DisabledScopeRecordsNothing)
{
    {
        Scope scope("test.profile.noop");
    }
    auto snap = profileSnapshot();
    EXPECT_EQ(snap.count("test.profile.noop"), 0u);
}

TEST_F(ProfileTest, EnabledScopeAggregatesCalls)
{
    setEnabled(true);
    for (int i = 0; i < 3; ++i) {
        Scope scope("test.profile.phase");
    }
    auto snap = profileSnapshot();
    ASSERT_EQ(snap.count("test.profile.phase"), 1u);
    const PhaseStat &s = snap.at("test.profile.phase");
    EXPECT_EQ(s.calls, 3u);
    EXPECT_GE(s.totalNs, s.maxNs);
}

TEST_F(ProfileTest, EnableStateLatchedAtConstruction)
{
    setEnabled(true);
    {
        Scope scope("test.profile.latched");
        // Disabling mid-scope must not lose the record (phase_ was
        // latched when the scope opened).
        setEnabled(false);
    }
    auto snap = profileSnapshot();
    EXPECT_EQ(snap.count("test.profile.latched"), 1u);
}

TEST_F(ProfileTest, WorkerThreadTimesMergeAfterRegion)
{
    setEnabled(true);
    exec::ThreadPool pool(4);
    pool.forIndex(8, [](std::size_t) {
        Scope scope("test.profile.worker");
    });
    // Workers flush their per-thread tables before they report
    // their share of the region done, so the merge is visible by the
    // time forIndex returns.
    auto snap = profileSnapshot();
    ASSERT_EQ(snap.count("test.profile.worker"), 1u);
    EXPECT_EQ(snap.at("test.profile.worker").calls, 8u);
}

TEST_F(ProfileTest, ReusedPoolCountsEachScopeOnce)
{
    setEnabled(true);
    exec::ThreadPool pool(4);
    auto region = [&] {
        pool.forIndex(8, [](std::size_t) {
            Scope scope("test.profile.reused");
        });
    };
    region();
    ASSERT_EQ(pool.workerCount(), 3u);
    EXPECT_EQ(profileSnapshot().at("test.profile.reused").calls, 8u);
    // The same parked workers run the second region; a flush that
    // re-merged their earlier entries would count them twice.
    region();
    EXPECT_EQ(pool.workerCount(), 3u);
    EXPECT_EQ(profileSnapshot().at("test.profile.reused").calls, 16u);
}

TEST_F(ProfileTest, ResetBetweenRegionsDropsWorkerContributions)
{
    setEnabled(true);
    exec::ThreadPool pool(4);
    auto region = [&] {
        pool.forIndex(8, [](std::size_t) {
            Scope scope("test.profile.reset");
        });
    };
    region();
    resetForTest();
    EXPECT_EQ(profileSnapshot().count("test.profile.reset"), 0u);
    region();
    EXPECT_EQ(profileSnapshot().at("test.profile.reset").calls, 8u);
}

TEST_F(ProfileTest, TableListsPhases)
{
    setEnabled(true);
    {
        Scope scope("test.profile.table");
    }
    std::ostringstream out;
    writeProfileTable(out);
    EXPECT_NE(out.str().find("test.profile.table"),
              std::string::npos);
    EXPECT_NE(out.str().find("calls"), std::string::npos);
}

} // namespace
} // namespace obs
} // namespace tts
