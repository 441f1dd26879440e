/** @file Unit tests for the DRAM latency model. */

#include <gtest/gtest.h>

#include "mem/dram_model.hh"

using namespace morrigan;

TEST(Dram, FirstAccessIsRowConflict)
{
    DramModel d(DramParams{});
    Cycle lat = d.access(0);
    EXPECT_EQ(lat, 3 * dramTParam);
    EXPECT_EQ(d.stats().rowConflicts, 1u);
}

TEST(Dram, SameRowHitsAreCheaper)
{
    DramParams p;
    DramModel d(p);
    d.access(0);
    Cycle hit = d.access(64);  // same row
    EXPECT_EQ(hit, dramTParam);
    EXPECT_EQ(d.stats().rowHits, 1u);
}

TEST(Dram, DifferentRowSameBankConflicts)
{
    DramParams p;
    DramModel d(p);
    d.access(0);
    // Same bank, different row: rows are striped across banks, so
    // row r and row r + banks share a bank.
    Addr conflict_addr = static_cast<Addr>(p.rowBytes) * p.banks;
    Cycle lat = d.access(conflict_addr);
    EXPECT_EQ(lat, 3 * dramTParam);
}

TEST(Dram, BanksAreIndependent)
{
    DramParams p;
    DramModel d(p);
    d.access(0);                       // opens bank 0
    d.access(p.rowBytes);              // opens bank 1
    EXPECT_EQ(d.access(0), dramTParam);  // bank 0 row still open
}

TEST(Dram, StreamingIsMostlyRowHits)
{
    DramParams p;
    DramModel d(p);
    for (Addr a = 0; a < 64 * 1024; a += 64)
        d.access(a);
    EXPECT_GT(d.stats().rowHits, d.stats().rowConflicts * 10);
}

TEST(Dram, RejectsGeometryThatIsNotAPowerOfTwo)
{
    DramParams banks;
    banks.banks = 6;
    EXPECT_EXIT(DramModel{banks}, ::testing::ExitedWithCode(1),
                "bank count 6 is not a power of two");
    DramParams rows;
    rows.rowBytes = 3000;
    EXPECT_EXIT(DramModel{rows}, ::testing::ExitedWithCode(1),
                "row size 3000 is not a power of two");
    DramParams none;
    none.banks = 0;
    EXPECT_EXIT(DramModel{none}, ::testing::ExitedWithCode(1),
                "bank count 0 is not a power of two");
}
