#ifndef IPDS_IPDS_REFERENCE_H
#define IPDS_IPDS_REFERENCE_H

/**
 * @file
 * The pre-overhaul IPDS detector, kept verbatim as the golden
 * reference model.
 *
 * This is the original straight-line implementation: it re-hashes
 * every committed branch with HashParams::apply, heap-allocates and
 * zero-fills a fresh BSV vector per function entry, and reports
 * requests through a std::function sink. It is deliberately simple and
 * obviously correct; the optimized Detector (ipds/detector.h) must
 * produce byte-identical alarms, statistics and request streams, and
 * differential tests (DetectorGolden in tests/test_detector.cc,
 * tests/test_e2e.cc) hold the two in lockstep.
 *
 * Do not optimize this class — its value is being the fixed point the
 * fast path is measured and verified against.
 */

#include <functional>
#include <vector>

#include "core/program.h"
#include "ipds/detector.h"
#include "vm/vm.h"

namespace ipds {

/** Functional IPDS reference detector; attach to a Vm as an observer. */
class ReferenceDetector : public ExecObserver
{
  public:
    /** @p prog must outlive the detector. */
    explicit ReferenceDetector(const CompiledProgram &prog);

    /** Clear all state between runs. */
    void reset();

    /** Optional sink receiving every hardware request in order. */
    void setRequestSink(std::function<void(const IpdsRequest &)> sink);

    void onFunctionEnter(FuncId f) override;
    void onFunctionExit(FuncId f) override;
    void onBranch(FuncId f, uint64_t pc, bool taken) override;

    bool alarmed() const { return !alarmList.empty(); }
    const std::vector<Alarm> &alarms() const { return alarmList; }
    const DetectorStats &stats() const { return stat; }

    /** Hash space of the live top frame (0 if none). */
    uint32_t
    topFrameSpace() const
    {
        return stack.empty()
            ? 0
            : static_cast<uint32_t>(stack.back().bsv.size());
    }

    /** Fault injection: mirror of Detector::injectBsvState. */
    bool
    injectBsvState(uint32_t slot, BsvState s)
    {
        if (stack.empty() || slot >= stack.back().bsv.size())
            return false;
        stack.back().bsv[slot] = s;
        return true;
    }

  private:
    struct FrameTables
    {
        FuncId func = kNoFunc;
        std::vector<BsvState> bsv; ///< indexed by hash slot
    };

    void applyActions(FrameTables &ft,
                      const std::vector<SlotAction> &list);

    const CompiledProgram &prog;
    std::vector<FrameTables> stack;
    std::vector<Alarm> alarmList;
    DetectorStats stat;
    std::function<void(const IpdsRequest &)> sink;
};

} // namespace ipds

#endif // IPDS_IPDS_REFERENCE_H
