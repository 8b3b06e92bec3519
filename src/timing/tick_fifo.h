#ifndef IPDS_TIMING_TICK_FIFO_H
#define IPDS_TIMING_TICK_FIFO_H

/**
 * @file
 * Fixed-capacity FIFO of ticks, the one ring type of the timing model.
 * Storage is exactly the capacity, allocated once at construction;
 * nothing after that allocates, and a wrap is one compare.
 *
 * It is driven in one of two ways:
 *
 *  - as a queue (the IPDS request queue, whose occupancy varies):
 *    push(), pop(), full() and forEach();
 *  - as a fixed-lag line (the RUU, LSQ and fetch queue): built primed,
 *    that is full of one tick, and driven only by front() and
 *    rotate(). Once full, those FIFOs only ever pop their oldest tick
 *    as the next one enters, so the tick rotate() stores is front()
 *    again exactly capacity rotations later. One index does it: no
 *    count, no full() test. The prime stands in for the ticks of a
 *    not yet full queue and must be a value the reader's max()
 *    ignores (0 for a dispatch floor).
 */

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace ipds {

class TickFifo
{
  public:
    /** An empty queue of at most @p capacity ticks (min 1). */
    explicit TickFifo(uint32_t capacity)
        : buf(std::max(capacity, 1u)),
          cap(static_cast<uint32_t>(buf.size()))
    {}

    /** A full line of @p capacity (min 1) copies of @p prime. */
    TickFifo(uint32_t capacity, uint64_t prime)
        : buf(std::max(capacity, 1u), prime),
          cap(static_cast<uint32_t>(buf.size())), count(cap)
    {}

    bool empty() const { return count == 0; }
    bool full() const { return count == cap; }

    /** Oldest tick (not empty()). */
    uint64_t front() const { return buf[head]; }

    void
    pop()
    {
        assert(count != 0);
        head = next(head);
        count--;
    }

    void
    push(uint64_t tick)
    {
        assert(count < cap);
        uint32_t tail = head + count;
        buf[tail >= cap ? tail - cap : tail] = tick;
        count++;
    }

    /** pop() then push(@p tick) on a full FIFO: the fixed-lag step. */
    void
    rotate(uint64_t tick)
    {
        assert(count == cap);
        buf[head] = tick;
        head = next(head);
    }

    /** The held ticks, oldest first. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (uint32_t i = 0, h = head; i < count; i++, h = next(h))
            f(buf[h]);
    }

  private:
    uint32_t next(uint32_t i) const { return i + 1 == cap ? 0 : i + 1; }

    std::vector<uint64_t> buf;
    uint32_t cap;
    uint32_t head = 0;
    uint32_t count = 0;
};

} // namespace ipds

#endif // IPDS_TIMING_TICK_FIFO_H
