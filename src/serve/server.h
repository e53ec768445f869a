/**
 * @file
 * PimServer: the persistent simulation service.
 *
 * A long-running daemon over the existing machinery: clients submit
 * sweep requests as JSON frames on a Unix-domain socket
 * (serve/protocol.h), an acceptor thread hands each connection to a
 * session thread, sessions admit jobs into a bounded JobQueue
 * (reject-with-backpressure when full), and worker threads execute
 * jobs on the SweepRunner engines — streaming per-design-point result
 * frames back to a waiting client as they are produced.
 *
 * Two caches make the warm path cheap:
 *  - the trace corpus (serve/corpus_cache.h): one recording per
 *    (kernel, scale), persisted as a digest-named CompactTrace file,
 *    plus an in-memory copy for the life of the process;
 *  - the result memo (serve/result_memo.h): per design point, keyed
 *    (trace digest, canonical config), holding the serialized counter
 *    JSON — a fully-memoized job executes NO replay at all, and its
 *    result frames are byte-identical to the first computation.
 *
 * Shutdown is graceful everywhere: a client `shutdown` request or
 * SIGINT/SIGTERM (common/shutdown.h) stops admissions, drains queued
 * and running jobs, flushes the corpus manifest, detaches sessions,
 * and Stop() returns with the process exiting 0.
 */

#ifndef PIM_SERVE_SERVER_H
#define PIM_SERVE_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/types.h"
#include "serve/corpus_cache.h"
#include "serve/job_queue.h"
#include "serve/result_memo.h"
#include "sim/cache.h"
#include "sim/stack_profiler.h"
#include "sim/trace_codec.h"

namespace pim::serve {

struct ServerConfig
{
    std::string socket_path;
    std::string cache_dir;   ///< Empty disables the on-disk corpus.
    unsigned workers = 2;    ///< 0 = jobs queue but never run (tests).
    std::size_t queue_capacity = 16;
    unsigned sweep_threads = 0; ///< SweepRunner threads per job (0 = auto).
};

class PimServer
{
  public:
    explicit PimServer(ServerConfig config);
    ~PimServer();

    PimServer(const PimServer &) = delete;
    PimServer &operator=(const PimServer &) = delete;

    /** Bind, listen, spawn acceptor + workers.  False on bind error. */
    bool Start(std::string *error = nullptr);

    /**
     * Drain and stop: close admissions, run the queue dry (when
     * workers exist), flush the corpus manifest, detach every client,
     * join all threads.  Idempotent.
     */
    void Stop();

    /** Set by a client `shutdown` request; the main loop polls it. */
    bool ShutdownRequestedByClient() const { return client_shutdown_; }

    /** The `status` response document (also used by tests directly). */
    JsonValue StatusJson() const;

  private:
    struct Job;

    /**
     * One resident trace-table entry, exposed uniformly as a
     * TraceSource: a recording made this process holds the in-RAM
     * compact form (plus its cursor view); a corpus warm-start holds
     * the mmap-backed form instead, so jobs replay straight from disk
     * with zero decode-to-RAM staging.  Never mutated once published
     * (shared_ptr<const>), so `view`'s pointer into `compact` stays
     * valid for the handle's life.
     */
    struct TraceHandle
    {
        std::optional<sim::CompactTrace> compact;
        std::optional<sim::CompactTraceSource> view; ///< Over *compact.
        std::optional<sim::MappedCompactTrace> mapped;
        std::uint64_t digest = 0; ///< Content digest (memo/corpus key).

        const sim::TraceSource &
        source() const
        {
            return mapped ? static_cast<const sim::TraceSource &>(
                                *mapped)
                          : static_cast<const sim::TraceSource &>(
                                *view);
        }
    };

    /**
     * One memoized study profiling pass: the StackProfile snapshot of
     * a (trace digest, L1 geometry, pass geometry) replay plus the L1
     * counters that replay produced.  Any associativity or write
     * policy the pass supports — including axes no prior submission
     * asked for — is an O(histogram) readout from the snapshot, so a
     * repeat study submission executes ZERO replays (untracked
     * associativities are served with writebacks_exact=false).
     */
    struct StudyPassMemo
    {
        sim::StackProfile profile;
        sim::CacheStats l1;
    };

    void AcceptLoop();
    void SessionLoop(int fd);
    void WorkerLoop();
    void ExecuteJob(Job &job);
    void ExecuteLlcJob(Job &job);
    void ExecuteStudyJob(Job &job);
    /**
     * Sweep threads the job starting now may use: the configured (or
     * auto-detected) total divided by the jobs currently running, min
     * 1.  N concurrent jobs used to EACH take the full default pool —
     * N x cores threads on an N-worker server; the budget keeps the
     * product at ~cores.  Purely a resource cap: counters never
     * depend on the thread count.
     */
    unsigned SweepThreadBudget() const;
    /** Memory -> corpus -> record; sets *source to where it came from. */
    std::shared_ptr<const TraceHandle> AcquireTrace(const Job &job,
                                                    std::string *source);
    void HandleSubmit(int fd, const JsonValue &req);
    void FailJob(Job &job, const std::string &error);

    ServerConfig config_;
    int listen_fd_ = -1;

    JobQueue queue_;
    ResultMemo memo_;
    CorpusCache corpus_;

    // Trace handles stay resident for the life of the server: a fresh
    // recording keeps its (small) compact form in RAM, a corpus
    // warm-start keeps only the mmap (the page cache holds the bytes);
    // the digest is cached beside each trace either way.
    std::mutex trace_mu_;
    std::map<std::string, std::shared_ptr<const TraceHandle>> traces_;

    // Study pass memo (see StudyPassMemo).
    mutable std::mutex profiles_mu_;
    std::map<std::string, std::shared_ptr<const StudyPassMemo>>
        profiles_;
    std::atomic<std::uint64_t> profile_hits_{0};
    std::atomic<std::uint64_t> profile_misses_{0};
    /** Study passes answered by the set-sharded engine. */
    std::atomic<std::uint64_t> profiles_sharded_{0};

    mutable std::mutex jobs_mu_;
    std::condition_variable jobs_cv_;
    std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
    std::uint64_t next_job_id_ = 1;

    std::mutex clients_mu_;
    std::vector<int> client_fds_;

    std::thread acceptor_;
    std::vector<std::thread> workers_;
    std::vector<std::thread> sessions_;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> stopped_{false};
    std::atomic<bool> client_shutdown_{false};

    // Service counters surfaced by `status`.
    std::atomic<std::uint64_t> jobs_submitted_{0};
    std::atomic<std::uint64_t> jobs_rejected_{0};
    std::atomic<std::uint64_t> jobs_done_{0};
    std::atomic<std::uint64_t> jobs_failed_{0};
    std::atomic<std::uint64_t> jobs_running_{0};
    std::atomic<std::uint64_t> traces_recorded_{0};
    std::atomic<std::uint64_t> replays_executed_{0};
    std::atomic<std::uint64_t> frames_streamed_{0};
    std::atomic<std::uint64_t> protocol_errors_{0};
};

} // namespace pim::serve

#endif // PIM_SERVE_SERVER_H
