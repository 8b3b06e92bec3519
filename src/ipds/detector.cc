#include "ipds/detector.h"

#include <cassert>

#include "support/diag.h"

namespace ipds {

Detector::Detector(const CompiledProgram &prog)
    : prog(prog), pool(prog.funcs.size())
{}

void
Detector::reset()
{
    // Retire live frames back to their pools instead of freeing them,
    // so a reused detector stays allocation-free.
    stack.clear();
    curFunc = kNoFunc;
    curTables = nullptr;
    curFrame = nullptr;
    for (FuncPool &p : pool)
        p.live = 0;
    alarmList.clear();
    stat = {};
    curSeq = 0;
}

void
Detector::captureState(DetectorSnapshot &out) const
{
    out.activations.clear();
    auto add = [&](FuncId f, const FuncTables *t, const Frame *fr) {
        DetectorSnapshot::Activation a;
        a.func = f;
        uint32_t space = t->hash.space();
        for (uint32_t slot = 0; slot < space; ++slot) {
            BsvState s = read(*fr, slot);
            if (s != BsvState::Unknown)
                a.slots.emplace_back(slot,
                                     static_cast<uint8_t>(s));
        }
        out.activations.push_back(std::move(a));
    };
    // stack[0] is the pre-entry sentinel; live activations are
    // stack[1..] plus the unpacked current one.
    for (size_t i = 1; i < stack.size(); ++i)
        add(stack[i].func, stack[i].tables, stack[i].frame);
    if (curFunc != kNoFunc)
        add(curFunc, curTables, curFrame);
    out.stats = stat;
    out.alarmsSoFar = alarmList.size();
}

void
Detector::restoreState(const DetectorSnapshot &snap)
{
    reset();
    for (const auto &act : snap.activations) {
        if (act.func >= prog.funcs.size())
            fatal("detector snapshot: function %u out of range",
                  act.func);
        const FuncTables &t = prog.funcs[act.func].tables;
        FuncPool &p = pool[act.func];
        if (p.live == p.frames.size()) {
            auto fresh = std::make_unique<Frame>();
            fresh->word.assign(t.hash.space(), 0);
            p.frames.push_back(std::move(fresh));
            framesAllocated++;
        }
        Frame &fr = *p.frames[p.live++];
        if (fr.epoch >= kMaxEpoch) {
            std::fill(fr.word.begin(), fr.word.end(), 0);
            fr.epoch = 0;
        }
        fr.epoch++;
        for (const auto &sl : act.slots) {
            if (sl.first >= t.hash.space())
                fatal("detector snapshot: slot %u out of range for "
                      "function %u",
                      sl.first, act.func);
            write(fr, sl.first, static_cast<BsvState>(sl.second & 3));
        }
        stack.push_back({curFunc, curTables, curFrame});
        curFunc = act.func;
        curTables = &t;
        curFrame = &fr;
    }
    stat = snap.stats;
}

void
Detector::setRequestRing(RequestRing *r)
{
    ring = r;
}

// onFunctionEnter / onFunctionExit / onBranch / applyActions are
// defined inline in detector.h so concrete callers can inline them.

} // namespace ipds
