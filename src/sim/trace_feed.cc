#include "trace_feed.hh"

#include <algorithm>
#include <system_error>
#include <thread>

#include "common/logging.hh"
#include "common/telemetry.hh"

namespace morrigan
{

namespace
{

/**
 * How long a waiting side spins before it sleeps: longer than one
 * half-ring refill cycle, so a single run never pays a futex wake-up,
 * and short enough that a stuck partner costs next to no CPU. The
 * spin yields rather than pauses: when campaign workers outnumber the
 * cores, the core goes to a thread with work, and otherwise the yield
 * returns at once.
 */
constexpr std::uint64_t spinNs = 60'000;

/**
 * The producer's wake-up condition, shared by both sides so the
 * consumer rings only when it is true: the producer may produce, and
 * has room for half a ring (or for the rest of its grant). Refilling
 * in half-ring steps keeps a sleeping producer to one wake-up per
 * half ring.
 */
bool
producerReady(std::uint64_t head, std::uint64_t tail,
              std::uint64_t limit)
{
    const std::uint64_t want =
        std::min(limit - tail, TraceFeed::capacity / 2);
    return want != 0 && head + TraceFeed::capacity - tail >= want;
}

} // namespace

template <typename Ready>
bool
TraceFeed::Doorbell::waitUntil(Ready ready)
{
    if (ready())
        return false;
    const std::uint64_t deadline = telemetry::nowNs() + spinNs;
    do {
        std::this_thread::yield();
        if (ready())
            return true;
    } while (telemetry::nowNs() < deadline);
    for (;;) {
        const std::uint32_t seq = seq_.load();
        sleeping_.store(true);
        if (ready()) {
            sleeping_.store(false);
            return true;
        }
        seq_.wait(seq);
    }
}

TraceFeed::TraceFeed(TraceSource &source)
    : source_(source),
      ring_(std::make_unique<TraceRecord[]>(capacity))
{
    if (const int err =
            ::pthread_create(&producer_, nullptr, &producerMain, this))
        throw std::system_error(err, std::generic_category(),
                                "trace feed thread");
}

TraceFeed::~TraceFeed()
{
    stop_.store(true);
    producerBell_.ring();
    ::pthread_join(producer_, nullptr);
}

void *
TraceFeed::producerMain(void *feed)
{
    static_cast<TraceFeed *>(feed)->produce();
    return nullptr;
}

void
TraceFeed::grant(std::uint64_t records)
{
    granted_ = records;
    limit_.store(records);
    producerBell_.ring();
}

void
TraceFeed::publishHead()
{
    publishedHead_ = readPos_;
    head_.store(readPos_);
    producerBell_.ring([this] {
        return producerReady(readPos_, tail_.load(), granted_);
    });
}

const TraceRecord *
TraceFeed::acquireSlow(unsigned n)
{
    panic_if(readPos_ + n > granted_,
             "trace feed: consumer read past its grant (%llu > %llu)",
             static_cast<unsigned long long>(readPos_ + n),
             static_cast<unsigned long long>(granted_));
    // Free everything consumed so far before possibly sleeping, so
    // the producer always has room to make progress.
    publishHead();
    const bool waited = consumerBell_.waitUntil([&] {
        cachedTail_ = tail_.load();
        return cachedTail_ - readPos_ >= n || failed_.load();
    });
    if (waited)
        telemetry::add(telemetry::Counter::TraceFeedConsumerWaits);
    if (cachedTail_ - readPos_ < n)
        std::rethrow_exception(error_);
    return &ring_[readPos_ & (capacity - 1)];
}

void
TraceFeed::produce()
{
    std::uint64_t tail = 0;
    try {
        for (;;) {
            std::uint64_t end = tail;
            const bool waited = producerBell_.waitUntil([&] {
                if (stop_.load())
                    return true;
                const std::uint64_t head = head_.load();
                const std::uint64_t limit = limit_.load();
                end = std::min(limit, head + capacity);
                return producerReady(head, tail, limit);
            });
            if (waited)
                telemetry::add(
                    telemetry::Counter::TraceFeedProducerWaits);
            if (stop_.load())
                return;
            while (tail < end) {
                const std::uint64_t at = tail & (capacity - 1);
                const auto n = static_cast<unsigned>(
                    std::min({end - tail, capacity - at, maxChunk}));
                source_.nextBlock(&ring_[at], n);
                tail += n;
                tail_.store(tail);
                consumerBell_.ring();
                if (stop_.load(std::memory_order_relaxed))
                    return;
            }
        }
    } catch (...) {
        error_ = std::current_exception();
        failed_.store(true);
        consumerBell_.ring();
    }
}

} // namespace morrigan
