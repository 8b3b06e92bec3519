#include "timing/branchpred.h"

namespace ipds {

BranchPredictor::BranchPredictor(const TimingConfig &c)
    : bhtMask(c.bhtEntries - 1), btbMask(c.btbEntries - 1),
      histMask((1u << c.historyBits) - 1),
      bht(c.bhtEntries, 0),
      pht(1u << c.historyBits, 1), // weakly not-taken
      btb(c.btbEntries, 0)
{}

uint32_t
BranchPredictor::bhtIndex(uint64_t pc) const
{
    return static_cast<uint32_t>(pc >> 2) & bhtMask;
}

uint32_t
BranchPredictor::phtIndex(uint64_t pc) const
{
    uint16_t hist = bht[bhtIndex(pc)];
    // Classic PAg/gshare hybrid: fold the PC into the pattern index.
    return (hist ^ static_cast<uint32_t>(pc >> 2)) & histMask;
}

bool
BranchPredictor::predict(uint64_t pc) const
{
    return pht[phtIndex(pc)] >= 2;
}

bool
BranchPredictor::update(uint64_t pc, bool taken)
{
    nLookup++;
    bool predTaken = predict(pc);
    bool correct = predTaken == taken;

    // A taken branch whose target is absent from the BTB still costs a
    // fetch redirect even when the direction was guessed right.
    uint64_t slot = (pc >> 2) & btbMask;
    if (taken) {
        if (btb[slot] != pc) {
            btb[slot] = pc;
            correct = false;
        }
    }

    uint8_t &ctr = pht[phtIndex(pc)];
    if (taken && ctr < 3)
        ctr++;
    else if (!taken && ctr > 0)
        ctr--;

    uint16_t &hist = bht[bhtIndex(pc)];
    hist = static_cast<uint16_t>(((hist << 1) | (taken ? 1 : 0)) &
                                 histMask);

    if (!correct)
        nMispredict++;
    return correct;
}

} // namespace ipds
