/**
 * @file
 * SECDED ECC as an AIB mitigation layer (SS VI-B: "adversarial data
 * pattern-aware ECC algorithm/design ... could be promising").
 *
 * A Hamming(72,64) SECDED code over each 64-bit word of a row, with
 * the check bits kept in a controller-side store (on-die ECC keeps
 * them in spare columns; the placement does not change the error
 * arithmetic).  Single-bit errors per word correct; double-bit errors
 * detect; triple-or-more may miscorrect — which is exactly why the
 * adversarial data pattern, which concentrates flips, defeats plain
 * SECDED while scrambling + SECDED holds.
 */

#ifndef DRAMSCOPE_CORE_PROTECT_ECC_H
#define DRAMSCOPE_CORE_PROTECT_ECC_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bender/host.h"
#include "util/bitvec.h"

namespace dramscope {
namespace core {

/** Hamming(72,64) SECDED codec. */
class Secded72
{
  public:
    /** Computes the 8 check bits for a 64-bit data word. */
    static uint8_t encode(uint64_t data);

    /** Outcome of a decode. */
    enum class Outcome
    {
        Clean,        //!< Syndrome zero.
        Corrected,    //!< Single-bit error fixed.
        Detected,     //!< Double-bit error flagged (data unreliable).
        Miscorrected  //!< (Only distinguishable by the caller/tests.)
    };

    /**
     * Decodes a received (data, check) pair.  On a correctable error
     * @p data is fixed in place.
     */
    static Outcome decode(uint64_t &data, uint8_t check);

  private:
    /** Parity-check column for data bit position i (0..63). */
    static uint8_t column(unsigned i);
};

/** Per-read correction statistics. */
struct EccStats
{
    uint64_t wordsRead = 0;
    uint64_t corrected = 0;
    uint64_t detected = 0;      //!< Uncorrectable (DUE).
    uint64_t escaped = 0;       //!< Wrong data delivered (SDC),
                                //!< counted by the verifying caller.
};

/**
 * A controller-side ECC wrapper over row reads/writes: encodes on
 * write, corrects on read.
 */
class EccMemory
{
  public:
    explicit EccMemory(bender::Host &host);

    /** Writes a row, storing check bits for each 64-bit word. */
    void writeRowBits(dram::BankId bank, dram::RowAddr row,
                      const BitVec &data);

    /**
     * Reads a row and applies SECDED per word.
     * @param outcome_mask When non-null, bit w is set for words whose
     *        decode reported Detected (uncorrectable).
     */
    BitVec readRowBits(dram::BankId bank, dram::RowAddr row,
                       std::vector<bool> *uncorrectable = nullptr);

    const EccStats &stats() const { return stats_; }

  private:
    bender::Host &host_;
    /** (bank, row) -> check bytes per word. */
    std::unordered_map<uint64_t, std::vector<uint8_t>> checks_;
    EccStats stats_;
};

} // namespace core
} // namespace dramscope

#endif // DRAMSCOPE_CORE_PROTECT_ECC_H
