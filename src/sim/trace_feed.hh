/**
 * @file
 * A producer thread that runs a TraceSource ahead of the simulator.
 *
 * Workload generation takes no feedback from the simulation, so its
 * records can be produced on another core. A TraceFeed owns one
 * producer thread that fills a bounded single-producer /
 * single-consumer ring of TraceRecords with TraceSource::nextBlock();
 * Simulator::run() reads its blocks out of the ring.
 *
 * - Grants keep save points exact. The producer only produces up to
 *   the record count the consumer last granted(). The simulator
 *   grants up to its next save point, so when it gets there the ring
 *   is empty and the source sits exactly where serial generation
 *   would have left it: save() sees the same bytes.
 * - Exceptions cross threads. An exception thrown by the source is
 *   captured on the producer and rethrown from acquire() when the
 *   consumer asks for the first record the producer did not publish
 *   (the first record of the chunk that threw).
 * - Nothing outlives the feed. The destructor stops and joins the
 *   producer, so a consumer-side throw unwinds through it safely.
 * - Waiting sleeps. Either side yields for up to 60 us, then blocks
 *   in std::atomic::wait() until the other side rings it. A producer
 *   whose consumer is stuck (e.g. in a hung job) costs no CPU. The
 *   two wait paths bump the TraceFeedConsumerWaits and
 *   TraceFeedProducerWaits telemetry counters.
 */

#ifndef MORRIGAN_SIM_TRACE_FEED_HH
#define MORRIGAN_SIM_TRACE_FEED_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>

#include <pthread.h>

#include "workload/trace.hh"

namespace morrigan
{

/** One workload's producer thread and the ring it fills. */
class TraceFeed
{
  public:
    /** Ring capacity in records (a power of two). */
    static constexpr std::uint64_t capacity = 1024;

    /** Start the producer; it produces nothing before grant(). */
    explicit TraceFeed(TraceSource &source);

    /** Stop and join the producer (it may stop mid-grant). */
    ~TraceFeed();

    TraceFeed(const TraceFeed &) = delete;
    TraceFeed &operator=(const TraceFeed &) = delete;

    /** Let the producer run until it has produced @p records in
     * total. Grants only grow. Consumer thread only. */
    void grant(std::uint64_t records);

    /**
     * The next @p n records (n divides capacity), valid until
     * release(). Blocks until the producer has published them.
     * Consumer thread only.
     * @throws whatever the source threw for these records.
     */
    const TraceRecord *
    acquire(unsigned n)
    {
        if (cachedTail_ - readPos_ >= n)
            return &ring_[readPos_ & (capacity - 1)];
        return acquireSlow(n);
    }

    /** Hand the @p n records of the last acquire() back. */
    void
    release(unsigned n)
    {
        readPos_ += n;
        if (readPos_ - publishedHead_ >= releaseBatch)
            publishHead();
    }

    /** Whether every granted record was consumed, i.e. the source is
     * quiescent at the position serial generation would leave it. */
    bool
    drained() const
    {
        return readPos_ == granted_ &&
               tail_.load(std::memory_order_acquire) == granted_;
    }

  private:
    /** Records the consumer frees before telling the producer. */
    static constexpr std::uint64_t releaseBatch = 128;
    /** Largest nextBlock() call of the producer. */
    static constexpr std::uint64_t maxChunk = 128;

    /**
     * Yield-then-sleep wake-up of one waiting thread. The waiter
     * re-checks its condition after announcing itself (seq_cst on both
     * sides), so a state change made before ring() is never missed.
     */
    class Doorbell
    {
      public:
        /** Return once @p ready() holds; true if it had to wait. */
        template <typename Ready>
        bool waitUntil(Ready ready);

        /** Wake the waiter if it sleeps and @p worth() says its
         * condition may now hold. Call after a seq_cst store to the
         * state that condition reads. */
        template <typename Worth>
        void
        ring(Worth worth)
        {
            if (sleeping_.load() && worth()) {
                sleeping_.store(false);
                seq_.fetch_add(1);
                seq_.notify_one();
            }
        }

        void
        ring()
        {
            ring([] { return true; });
        }

      private:
        alignas(64) std::atomic<std::uint32_t> seq_{0};
        std::atomic<bool> sleeping_{false};
    };

    const TraceRecord *acquireSlow(unsigned n);
    void publishHead();
    void produce();
    static void *producerMain(void *feed);

    TraceSource &source_;
    std::unique_ptr<TraceRecord[]> ring_;

    // Consumer-owned.
    std::uint64_t readPos_ = 0;
    std::uint64_t cachedTail_ = 0;
    std::uint64_t publishedHead_ = 0;
    std::uint64_t granted_ = 0;

    // Shared, one writer each.
    alignas(64) std::atomic<std::uint64_t> tail_{0};  //!< producer
    alignas(64) std::atomic<std::uint64_t> head_{0};  //!< consumer
    std::atomic<std::uint64_t> limit_{0};             //!< consumer
    std::atomic<bool> stop_{false};                   //!< consumer
    std::atomic<bool> failed_{false};                 //!< producer
    std::exception_ptr error_;  //!< written before failed_

    Doorbell consumerBell_;
    Doorbell producerBell_;

    /**
     * A bare pthread rather than std::thread: std::thread frees its
     * start state on the new thread, and that first free() attaches
     * the thread to a malloc arena. One arena handed around per run()
     * let a campaign's worker threads land on fresh arenas and grew
     * its peak RSS by a simulator's footprint.
     */
    pthread_t producer_;
};

} // namespace morrigan

#endif // MORRIGAN_SIM_TRACE_FEED_HH
