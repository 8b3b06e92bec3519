#ifndef IPDS_TIMING_TICK_FIFO_H
#define IPDS_TIMING_TICK_FIFO_H

/**
 * @file
 * Fixed-capacity FIFO of ticks, the one ring type of the timing model
 * (RUU, LSQ, fetch queue, IPDS request queue). Storage is allocated
 * once at construction, rounded up to a power of two so a wrap is a
 * mask; push and pop never allocate.
 */

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace ipds {

class TickFifo
{
  public:
    /** Holds at most @p capacity ticks (full() at that size). */
    explicit TickFifo(uint32_t capacity)
        : buf(std::bit_ceil(std::max(capacity, 1u))),
          mask(static_cast<uint32_t>(buf.size()) - 1), cap(capacity)
    {}

    bool empty() const { return count == 0; }
    bool full() const { return count == cap; }

    /** Oldest tick (not empty()). */
    uint64_t front() const { return buf[head]; }

    void
    pop()
    {
        assert(count != 0);
        head = (head + 1) & mask;
        count--;
    }

    void
    push(uint64_t tick)
    {
        assert(count < cap);
        buf[(head + count) & mask] = tick;
        count++;
    }

    /** The held ticks, oldest first. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (uint32_t i = 0; i < count; i++)
            f(buf[(head + i) & mask]);
    }

  private:
    std::vector<uint64_t> buf;
    uint32_t mask;
    uint32_t cap;
    uint32_t head = 0;
    uint32_t count = 0;
};

} // namespace ipds

#endif // IPDS_TIMING_TICK_FIFO_H
