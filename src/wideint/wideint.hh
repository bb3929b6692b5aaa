/**
 * @file
 * Fixed-width big unsigned integers for aligned fixed-point arithmetic.
 *
 * The accelerator of Feinberg et al. (ISCA 2018) converts IEEE-754
 * doubles into aligned fixed-point operands of up to 118 bits, encodes
 * them with a 9-bit AN code into up to 127 bits, and accumulates
 * partial dot products whose width can exceed 128 bits. WideUInt<NW>
 * provides the exact integer arithmetic needed to model this at the
 * bit level: NW 64-bit words in little-endian word order.
 */

#ifndef MSC_WIDEINT_WIDEINT_HH
#define MSC_WIDEINT_WIDEINT_HH

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <string>

#include "util/logging.hh"

namespace msc {

template <unsigned NW>
class WideUInt
{
    static_assert(NW >= 1, "WideUInt needs at least one word");

  public:
    static constexpr unsigned numWords = NW;
    static constexpr unsigned numBits = NW * 64;

    constexpr WideUInt() : w{} {}

    constexpr WideUInt(std::uint64_t v) : w{} { w[0] = v; } // NOLINT

    /** Construct from a word array (little endian). */
    explicit constexpr WideUInt(const std::array<std::uint64_t, NW> &words)
        : w(words)
    {}

    /** Widen or truncate from another width. Truncation keeps low bits. */
    template <unsigned MW>
    static constexpr WideUInt
    from(const WideUInt<MW> &other)
    {
        WideUInt r;
        for (unsigned i = 0; i < NW && i < MW; ++i)
            r.w[i] = other.word(i);
        return r;
    }

    constexpr std::uint64_t word(unsigned i) const { return w[i]; }
    constexpr void setWord(unsigned i, std::uint64_t v) { w[i] = v; }

    constexpr bool
    isZero() const
    {
        for (auto word : w)
            if (word)
                return false;
        return true;
    }

    /** Value of bit @p pos (0 = LSB); out-of-range bits read as 0. */
    constexpr bool
    bit(unsigned pos) const
    {
        if (pos >= numBits)
            return false;
        return (w[pos / 64] >> (pos % 64)) & 1;
    }

    constexpr void
    setBit(unsigned pos, bool v = true)
    {
        if (pos >= numBits)
            panic("WideUInt::setBit out of range: ", pos);
        if (v)
            w[pos / 64] |= (std::uint64_t{1} << (pos % 64));
        else
            w[pos / 64] &= ~(std::uint64_t{1} << (pos % 64));
    }

    /**
     * Bits [pos, pos+width) as a 64-bit value, width <= 64.
     * Bits beyond numBits read as zero. Used by the slice-group
     * kernels to extract narrow bit-range operands without
     * materializing wide masked temporaries.
     */
    constexpr std::uint64_t
    extractBits(unsigned pos, unsigned width) const
    {
        const unsigned wi = pos / 64;
        const unsigned bi = pos % 64;
        std::uint64_t v = wi < NW ? (w[wi] >> bi) : 0;
        if (bi && wi + 1 < NW)
            v |= w[wi + 1] << (64 - bi);
        if (width < 64)
            v &= (std::uint64_t{1} << width) - 1;
        return v;
    }

    /** Flip bit @p pos; models a single-bit transmission/storage error. */
    constexpr void
    flipBit(unsigned pos)
    {
        if (pos >= numBits)
            panic("WideUInt::flipBit out of range: ", pos);
        w[pos / 64] ^= (std::uint64_t{1} << (pos % 64));
    }

    /** Number of significant bits; 0 for the value zero. */
    constexpr unsigned
    bitLength() const
    {
        for (int i = NW - 1; i >= 0; --i) {
            if (w[i])
                return static_cast<unsigned>(i) * 64 +
                       (64 - std::countl_zero(w[i]));
        }
        return 0;
    }

    /** Number of significant 64-bit words; 0 for the value zero.
     *  The width-aware arithmetic paths below use this to skip zero
     *  high limbs: accumulators rarely fill all NW words. */
    constexpr unsigned
    sigWords() const
    {
        for (int i = NW - 1; i >= 0; --i) {
            if (w[i])
                return static_cast<unsigned>(i) + 1;
        }
        return 0;
    }

    constexpr unsigned
    popcount() const
    {
        unsigned n = 0;
        for (auto word : w)
            n += static_cast<unsigned>(std::popcount(word));
        return n;
    }

    /** Index of the lowest set bit, or numBits when zero. */
    constexpr unsigned
    countTrailingZeros() const
    {
        for (unsigned i = 0; i < NW; ++i) {
            if (w[i])
                return i * 64 +
                       static_cast<unsigned>(std::countr_zero(w[i]));
        }
        return numBits;
    }

    // --- addition / subtraction -------------------------------------

    constexpr WideUInt &
    operator+=(const WideUInt &o)
    {
        const unsigned n = o.sigWords();
        unsigned __int128 carry = 0;
        for (unsigned i = 0; i < n; ++i) {
            carry += w[i];
            carry += o.w[i];
            w[i] = static_cast<std::uint64_t>(carry);
            carry >>= 64;
        }
        for (unsigned i = n; carry && i < NW; ++i) {
            carry += w[i];
            w[i] = static_cast<std::uint64_t>(carry);
            carry >>= 64;
        }
        return *this;
    }

    constexpr WideUInt &
    operator-=(const WideUInt &o)
    {
        const unsigned n = o.sigWords();
        unsigned __int128 borrow = 0;
        for (unsigned i = 0; i < n; ++i) {
            unsigned __int128 lhs = w[i];
            unsigned __int128 rhs =
                static_cast<unsigned __int128>(o.w[i]) + borrow;
            if (lhs >= rhs) {
                w[i] = static_cast<std::uint64_t>(lhs - rhs);
                borrow = 0;
            } else {
                w[i] = static_cast<std::uint64_t>(
                    (lhs + (static_cast<unsigned __int128>(1) << 64)) - rhs);
                borrow = 1;
            }
        }
        for (unsigned i = n; borrow && i < NW; ++i) {
            if (w[i]) {
                --w[i];
                borrow = 0;
            } else {
                w[i] = ~std::uint64_t{0};
            }
        }
        return *this;
    }

    friend constexpr WideUInt
    operator+(WideUInt a, const WideUInt &b)
    {
        a += b;
        return a;
    }

    friend constexpr WideUInt
    operator-(WideUInt a, const WideUInt &b)
    {
        a -= b;
        return a;
    }

    /** this += (o << shift), without materializing the shifted value. */
    constexpr void
    addShifted(const WideUInt &o, unsigned shift)
    {
        const unsigned n = o.sigWords();
        if (n == 0)
            return;
        const unsigned wordShift = shift / 64;
        const unsigned bitShift = shift % 64;
        unsigned __int128 carry = 0;
        for (unsigned i = wordShift; i < NW; ++i) {
            const unsigned src = i - wordShift;
            // Beyond o's significant words every piece is zero; only
            // a pending carry still needs to ripple.
            if (src > n && !carry)
                break;
            std::uint64_t piece = 0;
            if (src < n)
                piece = o.w[src] << bitShift;
            if (bitShift && src >= 1 && src - 1 < n)
                piece |= o.w[src - 1] >> (64 - bitShift);
            carry += w[i];
            carry += piece;
            w[i] = static_cast<std::uint64_t>(carry);
            carry >>= 64;
        }
    }

    // --- shifts -------------------------------------------------------

    constexpr WideUInt &
    operator<<=(unsigned s)
    {
        if (s >= numBits) {
            w = {};
            return *this;
        }
        const unsigned wordShift = s / 64;
        const unsigned bitShift = s % 64;
        const unsigned n = sigWords();
        for (int i = NW - 1; i >= 0; --i) {
            const int src = i - static_cast<int>(wordShift);
            // Source words at or above n are zero: skip the shifts.
            if (src >= static_cast<int>(n) + 1 || src < -1) {
                w[i] = 0;
                continue;
            }
            std::uint64_t v = 0;
            if (src >= 0 && src < static_cast<int>(n))
                v = w[src] << bitShift;
            if (bitShift && src - 1 >= 0 &&
                src - 1 < static_cast<int>(n))
                v |= w[src - 1] >> (64 - bitShift);
            w[i] = v;
        }
        return *this;
    }

    constexpr WideUInt &
    operator>>=(unsigned s)
    {
        if (s >= numBits) {
            w = {};
            return *this;
        }
        const unsigned wordShift = s / 64;
        const unsigned bitShift = s % 64;
        const unsigned n = sigWords();
        for (unsigned i = 0; i < NW; ++i) {
            const unsigned src = i + wordShift;
            // Source words at or above n are zero: skip the shifts.
            if (src >= n) {
                w[i] = 0;
                continue;
            }
            std::uint64_t v = w[src] >> bitShift;
            if (bitShift && src + 1 < n)
                v |= w[src + 1] << (64 - bitShift);
            w[i] = v;
        }
        return *this;
    }

    friend constexpr WideUInt
    operator<<(WideUInt a, unsigned s)
    {
        a <<= s;
        return a;
    }

    friend constexpr WideUInt
    operator>>(WideUInt a, unsigned s)
    {
        a >>= s;
        return a;
    }

    // --- bitwise ------------------------------------------------------

    constexpr WideUInt &
    operator&=(const WideUInt &o)
    {
        for (unsigned i = 0; i < NW; ++i)
            w[i] &= o.w[i];
        return *this;
    }

    constexpr WideUInt &
    operator|=(const WideUInt &o)
    {
        for (unsigned i = 0; i < NW; ++i)
            w[i] |= o.w[i];
        return *this;
    }

    constexpr WideUInt &
    operator^=(const WideUInt &o)
    {
        for (unsigned i = 0; i < NW; ++i)
            w[i] ^= o.w[i];
        return *this;
    }

    friend constexpr WideUInt
    operator&(WideUInt a, const WideUInt &b)
    {
        a &= b;
        return a;
    }

    friend constexpr WideUInt
    operator|(WideUInt a, const WideUInt &b)
    {
        a |= b;
        return a;
    }

    friend constexpr WideUInt
    operator^(WideUInt a, const WideUInt &b)
    {
        a ^= b;
        return a;
    }

    constexpr WideUInt
    operator~() const
    {
        WideUInt r;
        for (unsigned i = 0; i < NW; ++i)
            r.w[i] = ~w[i];
        return r;
    }

    // --- comparison -----------------------------------------------------

    friend constexpr bool
    operator==(const WideUInt &a, const WideUInt &b)
    {
        return a.w == b.w;
    }

    friend constexpr std::strong_ordering
    operator<=>(const WideUInt &a, const WideUInt &b)
    {
        for (int i = NW - 1; i >= 0; --i) {
            if (a.w[i] != b.w[i])
                return a.w[i] <=> b.w[i];
        }
        return std::strong_ordering::equal;
    }

    // --- multiplication / division --------------------------------------

    /** Multiply by a 64-bit value in place; overflow bits are dropped. */
    constexpr WideUInt &
    mulSmall(std::uint64_t m)
    {
        const unsigned n = sigWords();
        unsigned __int128 carry = 0;
        for (unsigned i = 0; i < n; ++i) {
            unsigned __int128 p =
                static_cast<unsigned __int128>(w[i]) * m + carry;
            w[i] = static_cast<std::uint64_t>(p);
            carry = p >> 64;
        }
        // The carry out of a 64x64 multiply-add fits one word.
        if (carry && n < NW)
            w[n] = static_cast<std::uint64_t>(carry);
        return *this;
    }

    /** Remainder modulo a small (<2^32 recommended) divisor. */
    constexpr std::uint64_t
    modSmall(std::uint64_t d) const
    {
        unsigned __int128 rem = 0;
        for (int i = static_cast<int>(sigWords()) - 1; i >= 0; --i) {
            rem = ((rem << 64) | w[i]) % d;
        }
        return static_cast<std::uint64_t>(rem);
    }

    /** Divide in place by a 64-bit divisor; returns the remainder. */
    constexpr std::uint64_t
    divSmall(std::uint64_t d)
    {
        if (d == 0)
            panic("WideUInt::divSmall by zero");
        unsigned __int128 rem = 0;
        for (int i = static_cast<int>(sigWords()) - 1; i >= 0; --i) {
            unsigned __int128 cur = (rem << 64) | w[i];
            w[i] = static_cast<std::uint64_t>(cur / d);
            rem = cur % d;
        }
        return static_cast<std::uint64_t>(rem);
    }

    /**
     * Full widening multiply of two WideUInts.
     *
     * @return a WideUInt wide enough to hold the exact product.
     */
    template <unsigned MW>
    constexpr WideUInt<NW + MW>
    mulWide(const WideUInt<MW> &o) const
    {
        WideUInt<NW + MW> r;
        for (unsigned i = 0; i < NW; ++i) {
            if (!w[i])
                continue;
            std::uint64_t carry = 0;
            for (unsigned j = 0; j < MW; ++j) {
                unsigned __int128 p =
                    static_cast<unsigned __int128>(w[i]) * o.word(j);
                p += r.word(i + j);
                p += carry;
                r.setWord(i + j, static_cast<std::uint64_t>(p));
                carry = static_cast<std::uint64_t>(p >> 64);
            }
            unsigned k = i + MW;
            while (carry) {
                unsigned __int128 p =
                    static_cast<unsigned __int128>(r.word(k)) + carry;
                r.setWord(k, static_cast<std::uint64_t>(p));
                carry = static_cast<std::uint64_t>(p >> 64);
                ++k;
            }
        }
        return r;
    }

    // --- conversions -----------------------------------------------------

    /** Low 64 bits. */
    constexpr std::uint64_t low() const { return w[0]; }

    /** Approximate conversion to double (round-to-nearest by ladder). */
    double
    toDouble() const
    {
        double r = 0.0;
        for (int i = NW - 1; i >= 0; --i)
            r = r * 0x1.0p64 + static_cast<double>(w[i]);
        return r;
    }

    std::string
    toHex() const
    {
        static const char digits[] = "0123456789abcdef";
        std::string s;
        bool started = false;
        for (int i = NW - 1; i >= 0; --i) {
            for (int nib = 15; nib >= 0; --nib) {
                unsigned d =
                    static_cast<unsigned>((w[i] >> (nib * 4)) & 0xf);
                if (d != 0)
                    started = true;
                if (started)
                    s.push_back(digits[d]);
            }
        }
        if (!started)
            s.push_back('0');
        return "0x" + s;
    }

  private:
    std::array<std::uint64_t, NW> w;
};

using U128 = WideUInt<2>;
using U192 = WideUInt<3>;
using U256 = WideUInt<4>;
using U320 = WideUInt<5>;

} // namespace msc

#endif // MSC_WIDEINT_WIDEINT_HH
