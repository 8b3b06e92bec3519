#ifndef IPDS_IPDS_REQUEST_RING_H
#define IPDS_IPDS_REQUEST_RING_H

/**
 * @file
 * The request descriptor sent from the detector to the (modelled) IPDS
 * hardware engine, and the small-buffer ring that transports it.
 *
 * The ring is Detector's one request transport: the detector writes
 * records inline (no indirect call, no allocation) and the timing
 * model drains them in batches at the commit point of the triggering
 * instruction. Producer and consumer run on the same thread
 * (both are Vm observers), so no synchronization is needed; the ring
 * only bounds how far the producer may run ahead of a drain.
 *
 * Overflow is NOT a process abort: a block with pathologically long
 * BAT action lists (or a consumer that drains late) can legitimately
 * outrun the configured capacity. When the ring fills it either
 * chunk-flushes the oldest half into an overflow sink (backpressure —
 * the CpuModel feeds them straight to the engine) or, with no sink
 * installed, doubles its capacity. Both paths are counted so tests and
 * metrics can see the pressure.
 *
 * Storage is a small-buffer design tuned so the deployed
 * configuration pays nothing for the added flexibility: a fixed
 * inline array of kInlineCapacity slots serves every configured
 * capacity up to that size (any occupancy window <= kInlineCapacity
 * maps to distinct slots under the inline mask, so a smaller logical
 * capacity needs no relinearization). The producer and clean-drain
 * paths index it with a compile-time mask at a constant offset from
 * `this` — the same code the fixed-capacity ring this generalizes
 * compiled to — guarded by ONE predictable compare against `hotCap`.
 * hotCap doubles as the mode switch: it holds the logical capacity in
 * inline mode and 0 once a heap buffer takes over (capacity > inline,
 * or growth past it), so heap-mode traffic diverts through the cold
 * out-of-line paths without the hot path ever testing a second flag.
 * Heap mode exists for stress harnesses, not deployment, and its
 * per-request cost is irrelevant there.
 *
 * For fault-injection experiments (src/inject/) the ring can apply a
 * deterministic, RNG-seeded drop/duplicate filter at its drain
 * boundaries: since pop order and cadence are bit-identical across
 * per-event and batched delivery, the perturbed request stream — and
 * therefore every timing statistic — stays identical across engines.
 */

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "ir/ir.h"
#include "support/rng.h"

namespace ipds {

/** A unit of work sent to the (modelled) IPDS hardware engine. */
struct IpdsRequest
{
    enum class Kind : uint8_t
    {
        Check,     ///< verify actual vs expected direction
        Update,    ///< apply a BAT action list
        PushFrame, ///< function entry: push fresh tables
        PopFrame,  ///< function exit: pop tables
    };
    Kind kind = Kind::Update;
    FuncId func = kNoFunc;
    uint64_t pc = 0;
    /** BAT entries walked by an Update (list walk cost, §6). */
    uint32_t actionCount = 0;
    /** Table bits pushed/popped (spill cost modelling). */
    uint64_t tableBits = 0;
    /**
     * Transport metadata, not request content: index of the producing
     * event within its EventBatch (0 for per-event delivery and for
     * frame push/pop). Lets a consumer that receives a whole batch of
     * requests up front drain them at the same per-instruction cadence
     * as per-event delivery (drainThrough), so queue-depth accounting
     * and timing stay identical across delivery modes. Excluded from
     * operator== — request streams compare equal across modes.
     */
    uint32_t seq = 0;

    bool operator==(const IpdsRequest &o) const
    {
        return kind == o.kind && func == o.func && pc == o.pc &&
            actionCount == o.actionCount && tableBits == o.tableBits;
    }
};

/** drainThrough() limit that admits every request. */
inline constexpr uint32_t kDrainAllSeq = 0xffffffffu;

/**
 * FIFO of IpdsRequest with a configurable power-of-two capacity. A
 * committed instruction produces at most a handful of requests before
 * the consumer's next drain, so reaching the capacity signals
 * backpressure — handled by chunk-flushing into the overflow sink or
 * by growing, never by aborting the process.
 */
class RequestRing
{
  public:
    static constexpr uint32_t kCapacity = 1024; ///< default capacity
    /** Inline storage size; capacities up to this stay heap-free. */
    static constexpr uint32_t kInlineCapacity = 1024;

    /** @p capacity is rounded up to a power of two (min 16). */
    explicit RequestRing(uint32_t capacity = kCapacity)
    {
        uint32_t c = 16;
        while (c < capacity && c < (1u << 30))
            c <<= 1;
        cap = c;
        if (cap > kInlineCapacity) {
            hbuf.resize(cap);
            hmask = cap - 1;
            hotCap = 0; // heap mode: everything takes the cold paths
        } else {
            hotCap = cap;
        }
    }

    /**
     * Receives the oldest half of the ring when the producer outruns
     * the consumer (chunked-flush backpressure). Without a sink the
     * ring grows instead. The sink must be drain-equivalent: CpuModel
     * forwards straight into the engine at the current cycle.
     */
    void setOverflowSink(std::function<void(const IpdsRequest &)> fn)
    {
        overflowSink = std::move(fn);
    }

    /**
     * Arm the deterministic drain-boundary fault filter: each popped
     * request is dropped with probability @p drop_permille / 1000 and
     * delivered twice with probability @p dup_permille / 1000, decided
     * by an RNG seeded with @p seed. Rates of zero disarm the filter
     * (and the clean drain path pays nothing).
     */
    void
    setFault(uint32_t drop_permille, uint32_t dup_permille,
             uint64_t seed)
    {
        dropPermille = drop_permille;
        dupPermille = dup_permille;
        faultRng = Rng(seed);
        faultOn = dropPermille != 0 || dupPermille != 0;
    }

    void push(const IpdsRequest &rq)
    {
        // Full ring (or heap mode, where hotCap is 0 and the compare
        // always trips) continues in the cold helper and never rejoins
        // — so the hot store below keeps its constant base and mask,
        // exactly the code the fixed-buffer ring compiled to.
        if (__builtin_expect(tail - head >= hotCap, 0)) {
            coldPush(rq);
            return;
        }
        ibuf[tail & kInlineMask] = rq;
        tail++;
    }

    /**
     * Branchless producer path: stage() exposes the next free slot for
     * in-place construction; advance(commit) then publishes it (or
     * abandons it when @p commit is false, with no branch taken). Lets
     * the detector build a conditional request without a data-dependent
     * jump.
     */
    IpdsRequest &
    stage()
    {
        if (__builtin_expect(tail - head >= hotCap, 0))
            return coldStage(); // see push()
        return ibuf[tail & kInlineMask];
    }

    void advance(bool commit) { tail += commit ? 1 : 0; }

    bool empty() const { return head == tail; }
    uint32_t size() const { return tail - head; }
    uint32_t capacity() const { return cap; }
    void clear() { head = tail; }

    /**
     * Pop every pending request, oldest first, into @p fn. Occupancy
     * accounting (high-water mark, drain count) lives here on the
     * consumer side, so the producer path stays store-only. @p fn must
     * not push into this ring (a growth could move the heap buffer
     * under the hoisted pointer in the cold path); no consumer does.
     */
    template <typename Fn>
    void drain(Fn &&fn)
    {
        uint32_t pending = tail - head;
        if (pending == 0)
            return; // empty drain: no accounting, no stores
        if (pending > highWater)
            highWater = pending;
        drains++;
        // Clean inline-mode fast path: constant base and mask, no
        // flag soup — hotCap != 0 means inline storage, and faultOn
        // is the one extra (perfectly predicted) test.
        if (__builtin_expect(hotCap != 0 && !faultOn, 1)) {
            const IpdsRequest *b = ibuf.data();
            const uint32_t t = tail;
            for (uint32_t h = head; h != t; h++)
                fn(b[h & kInlineMask]);
            head = t;
            return;
        }
        do {
            deliver(fn, slot(head));
            head++;
        } while (head != tail);
    }

    /** Whether drainThrough(@p seq_limit, ...) would pop anything: the
     *  head request exists and its seq is <= @p seq_limit. */
    bool
    dueThrough(uint32_t seq_limit) const
    {
        return head != tail && slot(head).seq <= seq_limit;
    }

    /**
     * Pop oldest-first while the head request's seq is <= @p seq_limit.
     * With kDrainAllSeq this is drain(). Accounting counts what was
     * POPPED, not what was pending: a batched producer enqueues a whole
     * block's requests ahead of the consumer's replay, so pending would
     * overstate occupancy relative to per-event delivery, while the
     * popped count at each commit point is identical in both modes.
     */
    template <typename Fn>
    void drainThrough(uint32_t seq_limit, Fn &&fn)
    {
        uint32_t popped = 0;
        if (__builtin_expect(hotCap != 0 && !faultOn, 1)) {
            // Same fast path as drain() (see the note there).
            const IpdsRequest *b = ibuf.data();
            const uint32_t t = tail;
            uint32_t h = head;
            while (h != t && b[h & kInlineMask].seq <= seq_limit) {
                fn(b[h & kInlineMask]);
                h++;
                popped++;
            }
            head = h;
        } else {
            while (head != tail && slot(head).seq <= seq_limit) {
                deliver(fn, slot(head));
                head++;
                popped++;
            }
        }
        if (popped == 0)
            return;
        if (popped > highWater)
            highWater = popped;
        drains++;
    }

    /** Deepest queue occupancy ever seen at a drain point. */
    uint32_t maxOccupancy() const { return highWater; }
    /** Non-empty drains (each models one commit-point batch). */
    uint64_t drainCount() const { return drains; }
    /** Chunked flushes into the overflow sink (backpressure events). */
    uint64_t overflowFlushCount() const { return overflowFlushes; }
    /** Capacity doublings (overflow with no sink installed). */
    uint64_t growCount() const { return grows; }
    /** Requests dropped by the armed fault filter. */
    uint64_t faultDropCount() const { return faultDrops; }
    /** Requests duplicated by the armed fault filter. */
    uint64_t faultDupCount() const { return faultDups; }
    void resetStats()
    {
        highWater = 0;
        drains = 0;
        overflowFlushes = 0;
        grows = 0;
        faultDrops = 0;
        faultDups = 0;
    }

  private:
    static constexpr uint32_t kInlineMask = kInlineCapacity - 1;

    bool heapMode() const { return hotCap == 0; }

    /** Slot for ring position @p pos in the active storage. */
    IpdsRequest &
    slot(uint32_t pos)
    {
        if (heapMode())
            return hbuf[pos & hmask];
        return ibuf[pos & kInlineMask];
    }

    const IpdsRequest &
    slot(uint32_t pos) const
    {
        if (heapMode())
            return hbuf[pos & hmask];
        return ibuf[pos & kInlineMask];
    }

    /** Deliver @p rq, applying the armed fault filter (one predictable
     *  branch when disarmed). */
    template <typename Fn>
    void
    deliver(Fn &&fn, const IpdsRequest &rq)
    {
        if (!faultOn) {
            fn(rq);
            return;
        }
        if (dropPermille != 0 &&
            faultRng.below(1000) < dropPermille) {
            faultDrops++;
            return;
        }
        fn(rq);
        if (dupPermille != 0 && faultRng.below(1000) < dupPermille) {
            faultDups++;
            fn(rq);
        }
    }

    /** Cold continuation of push(): genuinely full, or heap mode. */
    __attribute__((noinline, cold)) void
    coldPush(const IpdsRequest &rq)
    {
        if (tail - head == cap)
            overflow();
        slot(tail) = rq;
        tail++;
    }

    /** Cold continuation of stage(): genuinely full, or heap mode. */
    __attribute__((noinline, cold)) IpdsRequest &
    coldStage()
    {
        if (tail - head == cap)
            overflow();
        return slot(tail);
    }

    /** Full ring: chunk-flush the oldest half into the sink, or grow. */
    __attribute__((noinline, cold)) void
    overflow()
    {
        if (overflowSink) {
            uint32_t n = (tail - head) / 2;
            if (n == 0)
                n = 1;
            for (uint32_t i = 0; i < n; i++) {
                overflowSink(slot(head));
                head++;
            }
            overflowFlushes++;
            return;
        }
        // Double the capacity. While the new capacity still fits the
        // inline buffer the contents need no move at all (every window
        // <= kInlineCapacity already maps to distinct inline slots);
        // past that, re-linearize into a heap buffer so index math
        // stays a single mask. Rare (counted); the steady state never
        // grows.
        grows++;
        if (!heapMode() && cap * 2 <= kInlineCapacity) {
            cap *= 2;
            hotCap = cap;
            return;
        }
        uint32_t n = tail - head;
        std::vector<IpdsRequest> bigger(cap * 2);
        for (uint32_t i = 0; i < n; i++)
            bigger[i] = slot(head + i);
        hbuf = std::move(bigger);
        cap *= 2;
        hmask = cap - 1;
        hotCap = 0; // heap mode from here on
        head = 0;
        tail = n;
    }

    std::array<IpdsRequest, kInlineCapacity> ibuf;
    std::vector<IpdsRequest> hbuf;
    uint32_t cap = kCapacity;
    uint32_t hmask = 0;
    /** Inline-mode logical capacity, or 0 in heap mode (hot guard). */
    uint32_t hotCap = kCapacity;
    uint32_t head = 0;
    uint32_t tail = 0;
    uint32_t highWater = 0;
    uint64_t drains = 0;
    uint64_t overflowFlushes = 0;
    uint64_t grows = 0;
    uint64_t faultDrops = 0;
    uint64_t faultDups = 0;
    std::function<void(const IpdsRequest &)> overflowSink;
    Rng faultRng{1};
    uint32_t dropPermille = 0;
    uint32_t dupPermille = 0;
    bool faultOn = false;
};

} // namespace ipds

#endif // IPDS_IPDS_REQUEST_RING_H
