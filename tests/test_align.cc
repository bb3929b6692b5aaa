/**
 * @file
 * Tests for block-aligned fixed-point conversion and bias encoding.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fixedpoint/align.hh"
#include "util/random.hh"

namespace msc {
namespace {

TEST(ExpRangeOf, BasicRange)
{
    const std::vector<double> v{1.0, 8.0, 0.25};
    const ExpRange r = expRangeOf(v);
    EXPECT_TRUE(r.anyNonZero);
    EXPECT_EQ(r.minExp, -2);
    EXPECT_EQ(r.maxExp, 3);
    EXPECT_EQ(r.span(), 5);
    EXPECT_TRUE(r.fits());
}

TEST(ExpRangeOf, IgnoresZeros)
{
    const std::vector<double> v{0.0, 2.0, 0.0};
    const ExpRange r = expRangeOf(v);
    EXPECT_EQ(r.minExp, 1);
    EXPECT_EQ(r.maxExp, 1);
}

TEST(ExpRangeOf, AllZeros)
{
    const std::vector<double> v{0.0, -0.0};
    const ExpRange r = expRangeOf(v);
    EXPECT_FALSE(r.anyNonZero);
    EXPECT_EQ(r.span(), 0);
    EXPECT_TRUE(r.fits());
}

TEST(ExpRangeOf, SubnormalUsesTrueLeadingBit)
{
    // 2^-1074 has its leading bit at exponent -1074, not -1022.
    const std::vector<double> v{0x1.0p-1074, 0x1.0p-1070};
    const ExpRange r = expRangeOf(v);
    EXPECT_EQ(r.minExp, -1074);
    EXPECT_EQ(r.maxExp, -1070);
}

TEST(ExpRangeOf, RangeBeyond64DoesNotFit)
{
    const std::vector<double> v{1.0, 0x1.0p65};
    EXPECT_FALSE(expRangeOf(v).fits());
    const std::vector<double> w{1.0, 0x1.0p64};
    EXPECT_TRUE(expRangeOf(w).fits());
}

TEST(ExpRangeOf, RejectsNonFinite)
{
    const std::vector<double> v{1.0, NAN};
    EXPECT_THROW(expRangeOf(v), FatalError);
}

TEST(AlignValues, ExactRoundTrip)
{
    const std::vector<double> v{1.5, -0.375, 1024.0, 0.0, -3.0};
    const AlignedSet s = alignValues(v);
    ASSERT_EQ(s.size(), v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_EQ(s.valueOf(i), v[i]) << "i=" << i;
}

TEST(AlignValues, RandomRoundTripWithinRange)
{
    Rng rng(37);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> v;
        const int base = static_cast<int>(rng.range(-500, 500));
        for (int i = 0; i < 32; ++i) {
            const int e = base + static_cast<int>(rng.range(0, 60));
            v.push_back(std::ldexp(rng.uniform(1.0, 2.0), e) *
                        (rng.chance(0.5) ? -1 : 1));
        }
        const AlignedSet s = alignValues(v);
        EXPECT_LE(s.magBits, fxp::maxMagBits);
        for (std::size_t i = 0; i < v.size(); ++i)
            EXPECT_EQ(s.valueOf(i), v[i]);
    }
}

TEST(AlignValues, MagBitsMatchesExponentSpan)
{
    // span = 10 -> the widest operand has 53 + 10 bits.
    const std::vector<double> v{1.0, 0x1.0p10};
    const AlignedSet s = alignValues(v);
    EXPECT_EQ(s.magBits, 63u);
    EXPECT_EQ(s.range.span(), 10);
}

TEST(AlignValues, MaxRangeProducesFullWidthOperand)
{
    const std::vector<double> v{0x1.fffffffffffffp0, 0x1.0p-64};
    const AlignedSet s = alignValues(v);
    EXPECT_EQ(s.magBits, fxp::maxMagBits);
    EXPECT_EQ(s.valueOf(0), v[0]);
    EXPECT_EQ(s.valueOf(1), v[1]);
}

TEST(AlignValues, FatalBeyondRange)
{
    const std::vector<double> v{1.0, 0x1.0p100};
    EXPECT_THROW(alignValues(v), FatalError);
}

TEST(AlignValues, BitSliceReconstructsValues)
{
    const std::vector<double> v{6.25, -0.5, 3.0};
    const AlignedSet s = alignValues(v);
    // Rebuild each magnitude from its bit slices.
    for (std::size_t i = 0; i < v.size(); ++i) {
        U128 rebuilt;
        for (unsigned k = 0; k < s.magBits; ++k) {
            if (s.bitSlice(k).get(i))
                rebuilt.setBit(k);
        }
        EXPECT_EQ(rebuilt, s.mag[i]);
    }
}

TEST(BiasEncode, StoredValuesAreUnsignedAndDecode)
{
    const std::vector<double> v{2.0, -2.0, 0.0, -0.125, 7.75};
    const AlignedSet s = alignValues(v);
    const BiasedSet b = biasEncode(s);
    ASSERT_EQ(b.size(), v.size());
    EXPECT_LE(b.width(), fxp::operandBits);
    for (std::size_t i = 0; i < v.size(); ++i) {
        U128 mag;
        bool neg = false;
        biasDecode(b, i, mag, neg);
        EXPECT_EQ(mag, s.mag[i]);
        if (!mag.isZero()) {
            EXPECT_EQ(neg, static_cast<bool>(s.neg[i]));
        }
    }
}

TEST(BiasEncode, ZeroStoresExactlyBias)
{
    const std::vector<double> v{0.0, 1.0};
    const BiasedSet b = biasEncode(alignValues(v));
    EXPECT_EQ(b.stored[0], b.bias());
}

TEST(BiasEncode, BiasCoversWorstOperand)
{
    Rng rng(41);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> v;
        for (int i = 0; i < 16; ++i) {
            v.push_back(std::ldexp(rng.uniform(1.0, 2.0),
                                   static_cast<int>(rng.range(0, 50)))
                        * (rng.chance(0.5) ? -1 : 1));
        }
        const AlignedSet s = alignValues(v);
        const BiasedSet b = biasEncode(s);
        for (std::size_t i = 0; i < v.size(); ++i) {
            // stored = bias +/- mag must never wrap below zero and
            // must fit in the operand width.
            EXPECT_LE(b.stored[i].bitLength(), b.width());
        }
    }
}

TEST(BiasEncode, MaxRangeOperandFitsPaperWidth)
{
    // Full 64-bit exponent spread: 117 magnitude bits + sign -> the
    // paper's 118-bit operand.
    const std::vector<double> v{-0x1.fffffffffffffp64, 0x1.0p0};
    const BiasedSet b = biasEncode(alignValues(v));
    EXPECT_EQ(b.width(), fxp::operandBits);
}

} // namespace
} // namespace msc
