/**
 * @file
 * Packed bit vector used for DRAM row contents.
 *
 * A DRAM row in this library is a BitVec whose index is the *physical*
 * bitline index inside the chip (post-swizzle).  The mapping layer
 * converts between host-visible data and this physical order.
 */

#ifndef DRAMSCOPE_UTIL_BITVEC_H
#define DRAMSCOPE_UTIL_BITVEC_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/log.h"

namespace dramscope {

/** Fixed-size packed vector of bits with word-level helpers. */
class BitVec
{
  public:
    BitVec() = default;

    /** Constructs @p n bits, all set to @p value. */
    explicit BitVec(size_t n, bool value = false)
        : size_(n), words_((n + 63) / 64, value ? ~0ULL : 0ULL)
    {
        trimTail();
    }

    /**
     * Packs RD_data bursts of @p width bits each (1..64): bit i of
     * burst c lands at c * width + i; bits above @p width are
     * ignored.  Works a word at a time.
     */
    static BitVec
    fromBursts(const std::vector<uint64_t> &bursts, unsigned width)
    {
        panicIf(width == 0 || width > 64, "fromBursts: bad width");
        const uint64_t mask = width == 64 ? ~0ULL : (1ULL << width) - 1;
        BitVec out(bursts.size() * width);
        size_t pos = 0;
        for (const uint64_t burst : bursts) {
            const uint64_t bits = burst & mask;
            const size_t off = pos & 63;
            out.words_[pos >> 6] |= bits << off;
            if (off + width > 64)
                out.words_[(pos >> 6) + 1] |= bits >> (64 - off);
            pos += width;
        }
        return out;
    }

    /** Number of bits. */
    size_t size() const { return size_; }

    /** True when the vector holds no bits. */
    bool empty() const { return size_ == 0; }

    /** Reads bit @p i. */
    bool
    get(size_t i) const
    {
        panicIf(i >= size_, "BitVec::get out of range");
        return (words_[i >> 6] >> (i & 63)) & 1ULL;
    }

    /** Writes bit @p i. */
    void
    set(size_t i, bool value)
    {
        panicIf(i >= size_, "BitVec::set out of range");
        const uint64_t mask = 1ULL << (i & 63);
        if (value)
            words_[i >> 6] |= mask;
        else
            words_[i >> 6] &= ~mask;
    }

    /** Flips bit @p i. */
    void
    flip(size_t i)
    {
        panicIf(i >= size_, "BitVec::flip out of range");
        words_[i >> 6] ^= 1ULL << (i & 63);
    }

    /** Sets every bit to @p value. */
    void
    fill(bool value)
    {
        for (auto &w : words_)
            w = value ? ~0ULL : 0ULL;
        trimTail();
    }

    /**
     * Fills the vector with a repeating bit pattern.
     * @param pattern Pattern bits, LSB first.
     * @param pattern_bits Number of valid bits in @p pattern (1..64).
     */
    void
    fillPattern(uint64_t pattern, unsigned pattern_bits)
    {
        panicIf(pattern_bits == 0 || pattern_bits > 64,
                "fillPattern: bad width");
        for (size_t i = 0; i < size_; ++i)
            set(i, (pattern >> (i % pattern_bits)) & 1ULL);
    }

    /** Number of set bits. */
    size_t
    popcount() const
    {
        size_t n = 0;
        for (auto w : words_)
            n += std::popcount(w);
        return n;
    }

    /** Number of positions where this and @p other differ. */
    size_t
    hammingDistance(const BitVec &other) const
    {
        panicIf(size_ != other.size_, "hammingDistance: size mismatch");
        size_t n = 0;
        for (size_t i = 0; i < words_.size(); ++i)
            n += std::popcount(words_[i] ^ other.words_[i]);
        return n;
    }

    /** Returns a copy with every bit inverted. */
    BitVec
    inverted() const
    {
        BitVec out(*this);
        for (auto &w : out.words_)
            w = ~w;
        out.trimTail();
        return out;
    }

    /** In-place XOR with @p other (sizes must match). */
    BitVec &
    operator^=(const BitVec &other)
    {
        panicIf(size_ != other.size_, "BitVec::^=: size mismatch");
        for (size_t i = 0; i < words_.size(); ++i)
            words_[i] ^= other.words_[i];
        return *this;
    }

    bool
    operator==(const BitVec &other) const
    {
        return size_ == other.size_ && words_ == other.words_;
    }

    bool operator!=(const BitVec &other) const { return !(*this == other); }

    /** Calls @p f with the index of every set bit, in ascending order. */
    template <typename F>
    void
    forEachOne(F &&f) const
    {
        for (size_t wi = 0; wi < words_.size(); ++wi) {
            uint64_t w = words_[wi];
            while (w) {
                f(wi * 64 + size_t(std::countr_zero(w)));
                w &= w - 1;
            }
        }
    }

    /** Indices of set bits (useful for error lists). */
    std::vector<size_t>
    onesPositions() const
    {
        std::vector<size_t> out;
        forEachOne([&](size_t i) { out.push_back(i); });
        return out;
    }

    /** Renders as a 0/1 string, bit 0 first (debugging aid). */
    std::string
    toString(size_t max_bits = 128) const
    {
        std::string s;
        const size_t n = size_ < max_bits ? size_ : max_bits;
        s.reserve(n + 3);
        for (size_t i = 0; i < n; ++i)
            s.push_back(get(i) ? '1' : '0');
        if (n < size_)
            s += "...";
        return s;
    }

  private:
    /** Clears bits beyond size_ in the last word. */
    void
    trimTail()
    {
        const size_t tail = size_ & 63;
        if (tail != 0 && !words_.empty())
            words_.back() &= (1ULL << tail) - 1;
    }

    size_t size_ = 0;
    std::vector<uint64_t> words_;
};

} // namespace dramscope

#endif // DRAMSCOPE_UTIL_BITVEC_H
