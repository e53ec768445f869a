/**
 * @file
 * Protocol and service tests for pim_serve: frame discipline
 * (malformed JSON, oversized frames, unknown request types), admission
 * control, memoized duplicate submissions with bit-identical result
 * frames, concurrent clients, and graceful drain.
 *
 * Every test runs a real PimServer on a real Unix-domain socket and
 * talks to it through ServeClient — the same code path as the
 * pim_client CLI, so the bytes asserted here are the bytes on the wire.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/digest.h"
#include "common/json.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/hierarchy.h"
#include "sim/trace.h"
#include "replay_fixtures.h"

namespace pim::serve {
namespace {

std::string
UniqueSocketPath(const char *tag)
{
    return testing::TempDir() + "pim_serve_" + tag + "_" +
           std::to_string(::getpid()) + ".sock";
}

/** A parsed frame plus its exact wire bytes. */
struct Frame
{
    std::string raw;
    JsonValue doc;

    std::string
    Type() const
    {
        const JsonValue *t = doc.Find("type");
        return t != nullptr ? t->AsString() : std::string();
    }
};

std::optional<Frame>
ReadFrame(ServeClient &client)
{
    std::string raw;
    auto doc = client.Read(&raw);
    if (!doc) {
        return std::nullopt;
    }
    return Frame{std::move(raw), std::move(*doc)};
}

JsonValue
SubmitRequest(const std::string &kernel, double scale,
              std::vector<double> llc_kib)
{
    JsonValue req = JsonValue::Object();
    req.Set("type", "submit");
    req.Set("kernel", kernel);
    req.Set("scale", scale);
    JsonValue ladder = JsonValue::Array();
    for (const double kib : llc_kib) {
        ladder.Push(kib);
    }
    req.Set("llc_kib", std::move(ladder));
    return req;
}

/** One completed submission: raw result frames plus the done frame. */
struct SweepRun
{
    std::vector<std::string> results;
    Frame done{};
};

/** Submit, stream to completion, and require a done frame. */
SweepRun
RunSweep(ServeClient &client, const JsonValue &req)
{
    SweepRun run;
    EXPECT_TRUE(client.Send(req));
    auto accepted = ReadFrame(client);
    if (!accepted || accepted->Type() != "accepted") {
        ADD_FAILURE() << "expected accepted, got "
                      << (accepted ? accepted->raw : "<eof>");
        return run;
    }
    for (;;) {
        auto frame = ReadFrame(client);
        if (!frame) {
            ADD_FAILURE() << "stream ended before done";
            return run;
        }
        if (frame->Type() == "result") {
            run.results.push_back(frame->raw);
            continue;
        }
        EXPECT_EQ(frame->Type(), "done") << frame->raw;
        run.done = std::move(*frame);
        return run;
    }
}

std::uint64_t
FieldU64(const JsonValue &doc, const char *name)
{
    const JsonValue *v = doc.Find(name);
    EXPECT_NE(v, nullptr) << name;
    return v != nullptr ? static_cast<std::uint64_t>(v->AsNumber())
                        : 0;
}

/** The nested counter groups of a status document. */
std::uint64_t
StatusCounter(const JsonValue &status, const char *group,
              const char *name)
{
    const JsonValue *g = status.Find(group);
    EXPECT_NE(g, nullptr) << group;
    return g != nullptr ? FieldU64(*g, name) : 0;
}

class ServeTest : public ::testing::Test
{
  protected:
    /** Start a server; the fixture owns it and stops it on teardown. */
    PimServer &
    StartServer(const char *tag, unsigned workers,
                std::size_t queue_capacity = 16,
                unsigned sweep_threads = 1)
    {
        ServerConfig config;
        config.socket_path = UniqueSocketPath(tag);
        config.workers = workers;
        config.queue_capacity = queue_capacity;
        config.sweep_threads = sweep_threads; // 1: deterministic, test-sized
        server_ = std::make_unique<PimServer>(config);
        std::string error;
        EXPECT_TRUE(server_->Start(&error)) << error;
        socket_path_ = config.socket_path;
        return *server_;
    }

    std::unique_ptr<ServeClient>
    Connect()
    {
        std::string error;
        auto client = ServeClient::Connect(socket_path_, &error);
        EXPECT_NE(client, nullptr) << error;
        return client;
    }

    void
    TearDown() override
    {
        if (server_ != nullptr) {
            server_->Stop();
        }
    }

    std::unique_ptr<PimServer> server_;
    std::string socket_path_;
};

TEST_F(ServeTest, MalformedJsonGetsErrorFrameAndSessionSurvives)
{
    StartServer("badjson", 0);
    auto client = Connect();
    ASSERT_NE(client, nullptr);

    ASSERT_TRUE(client->SendRaw("{this is not json\n"));
    auto err = ReadFrame(*client);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->Type(), "error");
    EXPECT_EQ(err->doc.Find("error")->AsString(), "parse");

    // A non-object document and a missing type member are protocol
    // errors too, but none of them poison the connection:
    ASSERT_TRUE(client->SendRaw("[1,2,3]\n"));
    err = ReadFrame(*client);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->doc.Find("error")->AsString(), "bad_request");

    ASSERT_TRUE(client->SendRaw("{\"kernel\":\"x\"}\n"));
    err = ReadFrame(*client);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->doc.Find("error")->AsString(), "bad_request");

    // ...the same session still answers a well-formed request.
    JsonValue status = JsonValue::Object();
    status.Set("type", "status");
    ASSERT_TRUE(client->Send(status));
    auto ok = ReadFrame(*client);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->Type(), "status");
    EXPECT_EQ(StatusCounter(ok->doc, "replay", "protocol_errors"), 3u);
}

TEST_F(ServeTest, OversizedFrameIsRejectedAndConnectionDropped)
{
    StartServer("oversize", 0);
    auto client = Connect();
    ASSERT_NE(client, nullptr);

    // One byte over the bound, no newline anywhere: the reader must
    // give up rather than buffer an unbounded line.
    std::string flood(kMaxFrameBytes + 1, 'x');
    ASSERT_TRUE(client->SendRaw(flood));
    auto err = ReadFrame(*client);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->Type(), "error");
    EXPECT_EQ(err->doc.Find("error")->AsString(), "frame_too_large");
    // The byte stream is poisoned, so the server hangs up on us.
    EXPECT_FALSE(ReadFrame(*client).has_value());

    // A fresh connection works fine.
    auto again = Connect();
    ASSERT_NE(again, nullptr);
    JsonValue status = JsonValue::Object();
    status.Set("type", "status");
    ASSERT_TRUE(again->Send(status));
    auto ok = ReadFrame(*again);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->Type(), "status");
}

TEST_F(ServeTest, UnknownAndInvalidRequestsAreRejectedPerRequest)
{
    StartServer("badreq", 0);
    auto client = Connect();
    ASSERT_NE(client, nullptr);

    const struct
    {
        JsonValue req;
        const char *code;
    } cases[] = {
        {[] {
             JsonValue r = JsonValue::Object();
             r.Set("type", "frobnicate");
             return r;
         }(),
         "unknown_request"},
        {SubmitRequest("no_such_kernel", 1.0, {256}),
         "unknown_kernel"},
        {SubmitRequest("texture_tiling", -2.0, {256}), "bad_request"},
        {SubmitRequest("texture_tiling", 1.0, {0}), "bad_point"},
        {[] {
             JsonValue r = SubmitRequest("texture_tiling", 1.0, {256});
             r.Set("sweep", "dram");
             return r;
         }(),
         "bad_request"},
        {[] {
             JsonValue r = JsonValue::Object();
             r.Set("type", "poll");
             r.Set("job", 424242);
             return r;
         }(),
         "unknown_job"},
    };
    for (const auto &c : cases) {
        ASSERT_TRUE(client->Send(c.req));
        auto err = ReadFrame(*client);
        ASSERT_TRUE(err.has_value()) << c.code;
        EXPECT_EQ(err->Type(), "error") << err->raw;
        EXPECT_EQ(err->doc.Find("error")->AsString(), c.code)
            << err->raw;
    }
    // Invalid submissions never enter the job table.
    const JsonValue status = server_->StatusJson();
    EXPECT_EQ(StatusCounter(status, "jobs", "submitted"), 0u);
}

TEST_F(ServeTest, NonFiniteOrFractionalValuesAreRejectedBeforeConversion)
{
    StartServer("badvalue", 1);
    auto client = Connect();
    ASSERT_NE(client, nullptr);

    // Raw frames: 1e999 parses to +inf, which JsonValue cannot write.
    // The host LLC granule is 8 ways x 64 B = 0.5 KiB; sizes that are
    // not a positive multiple of it, or not finite, must be answered
    // per request, before any conversion to an integer size.
    const struct
    {
        const char *frame;
        const char *code;
    } cases[] = {
        {R"({"type":"submit","kernel":"texture_tiling","scale":0.25,)"
         R"("llc_kib":[0.25]})",
         "bad_point"},
        {R"({"type":"submit","kernel":"texture_tiling","scale":0.25,)"
         R"("llc_kib":[256.25]})",
         "bad_point"},
        {R"({"type":"submit","kernel":"texture_tiling","scale":0.25,)"
         R"("llc_kib":[-256]})",
         "bad_point"},
        {R"({"type":"submit","kernel":"texture_tiling","scale":0.25,)"
         R"("llc_kib":[1e999]})",
         "bad_point"},
        {R"({"type":"submit","kernel":"texture_tiling","scale":0.25,)"
         R"("llc_kib":[-1e999]})",
         "bad_point"},
        {R"({"type":"submit","kernel":"texture_tiling","scale":1e999,)"
         R"("llc_kib":[256]})",
         "bad_request"},
    };
    for (const auto &c : cases) {
        ASSERT_TRUE(client->SendRaw(std::string(c.frame) + "\n"));
        auto err = ReadFrame(*client);
        ASSERT_TRUE(err.has_value()) << c.frame;
        ASSERT_EQ(err->Type(), "error") << c.frame << " -> " << err->raw;
        EXPECT_EQ(err->doc.Find("error")->AsString(), c.code)
            << c.frame << " -> " << err->raw;
    }

    // The server is still up: it answers status and runs a valid job.
    // Half a KiB is one granule; its integer cast once made an LLC of
    // size 0 and aborted the server.
    JsonValue status = JsonValue::Object();
    status.Set("type", "status");
    ASSERT_TRUE(client->Send(status));
    auto ok = ReadFrame(*client);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->Type(), "status");
    EXPECT_EQ(StatusCounter(ok->doc, "jobs", "submitted"), 0u);
    const SweepRun run = RunSweep(
        *client, SubmitRequest("texture_tiling", 0.125, {0.5, 256}));
    ASSERT_EQ(run.results.size(), 2u);
    const auto half = JsonParse(run.results[0]);
    ASSERT_TRUE(half.has_value());
    EXPECT_EQ(FieldU64(*half, "llc_bytes"), 512u) << run.results[0];
}

TEST_F(ServeTest, DuplicateSubmissionIsServedFromTheMemoBitIdentically)
{
    StartServer("memo", 1);
    auto client = Connect();
    ASSERT_NE(client, nullptr);
    const JsonValue req =
        SubmitRequest("texture_tiling", 0.125, {256, 512});

    const SweepRun first = RunSweep(*client, req);
    ASSERT_EQ(first.results.size(), 2u);
    EXPECT_EQ(FieldU64(first.done.doc, "memo_hits"), 0u);
    EXPECT_EQ(first.done.doc.Find("replayed")->AsBool(false), true);
    EXPECT_EQ(first.done.doc.Find("trace_source")->AsString(),
              "recorded");

    // The second submission must not replay anything, and its result
    // frames must be byte-identical to the first run's.
    const SweepRun second = RunSweep(*client, req);
    ASSERT_EQ(second.results.size(), 2u);
    EXPECT_EQ(FieldU64(second.done.doc, "memo_hits"), 2u);
    EXPECT_EQ(second.done.doc.Find("replayed")->AsBool(true), false);
    EXPECT_EQ(second.done.doc.Find("trace_source")->AsString(),
              "memory");
    EXPECT_EQ(first.results, second.results);
    EXPECT_EQ(first.done.doc.Find("trace_digest")->AsString(),
              second.done.doc.Find("trace_digest")->AsString());

    // Result frames carry the canonical config and the counters, but
    // no job-scoped fields — that is what makes them memoizable.
    const auto frame = JsonParse(first.results[0]);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->Find("job"), nullptr);
    EXPECT_EQ(FieldU64(*frame, "llc_bytes"), 256u * 1024);
    EXPECT_NE(frame->Find("config")->AsString().find(
                  "llc:size=262144"),
              std::string::npos);
    EXPECT_TRUE(frame->Find("counters")->is_object());

    // Polling the finished first job replays its stored frames —
    // still byte-identical.
    JsonValue poll = JsonValue::Object();
    poll.Set("type", "poll");
    poll.Set("job", FieldU64(first.done.doc, "job"));
    ASSERT_TRUE(client->Send(poll));
    for (const std::string &expected : first.results) {
        auto f = ReadFrame(*client);
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(f->raw, expected);
    }
    auto done = ReadFrame(*client);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->Type(), "done");

    const JsonValue status = server_->StatusJson();
    EXPECT_EQ(StatusCounter(status, "jobs", "done"), 2u);
    EXPECT_EQ(StatusCounter(status, "memo", "hits"), 2u);
    EXPECT_EQ(StatusCounter(status, "memo", "misses"), 2u);
    EXPECT_EQ(StatusCounter(status, "memo", "entries"), 2u);
    EXPECT_EQ(StatusCounter(status, "replay", "traces_recorded"), 1u);
    EXPECT_EQ(StatusCounter(status, "replay", "profile_passes"), 1u);
    EXPECT_FALSE(status.Find("corpus")->Find("enabled")->AsBool(true));
}

TEST_F(ServeTest, ConcurrentClientsRecordTheTraceExactlyOnce)
{
    StartServer("concurrent", 2);
    const JsonValue req =
        SubmitRequest("color_blitting", 0.125, {256, 512});

    constexpr int kClients = 4;
    std::vector<SweepRun> runs(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            auto client = Connect();
            ASSERT_NE(client, nullptr);
            runs[i] = RunSweep(*client, req);
        });
    }
    for (auto &t : threads) {
        t.join();
    }

    // Every client saw the whole ladder, from the same recording.
    for (const SweepRun &run : runs) {
        ASSERT_EQ(run.results.size(), 2u);
        EXPECT_EQ(run.results, runs[0].results);
        EXPECT_EQ(run.done.doc.Find("trace_digest")->AsString(),
                  runs[0].done.doc.Find("trace_digest")->AsString());
    }
    // The global acquisition lock deduplicates the expensive step:
    // one recording, no matter how the four jobs interleaved.
    const JsonValue status = server_->StatusJson();
    EXPECT_EQ(StatusCounter(status, "jobs", "done"),
              static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(StatusCounter(status, "replay", "traces_recorded"), 1u);
}

TEST_F(ServeTest, FullQueueRejectsWithBackpressure)
{
    // No workers: submissions park in the queue, so capacity 2 is
    // exhausted by the first two jobs.
    StartServer("backpressure", 0, 2);
    auto client = Connect();
    ASSERT_NE(client, nullptr);

    JsonValue req = SubmitRequest("texture_tiling", 0.125, {256});
    req.Set("wait", false);
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(client->Send(req));
        auto accepted = ReadFrame(*client);
        ASSERT_TRUE(accepted.has_value());
        EXPECT_EQ(accepted->Type(), "accepted") << accepted->raw;
    }
    ASSERT_TRUE(client->Send(req));
    auto rejected = ReadFrame(*client);
    ASSERT_TRUE(rejected.has_value());
    EXPECT_EQ(rejected->Type(), "rejected") << rejected->raw;
    EXPECT_EQ(rejected->doc.Find("reason")->AsString(), "queue_full");
    EXPECT_EQ(FieldU64(rejected->doc, "queue_capacity"), 2u);

    // The parked jobs are poll-able and report their queued state.
    JsonValue poll = JsonValue::Object();
    poll.Set("type", "poll");
    poll.Set("job", 1);
    ASSERT_TRUE(client->Send(poll));
    auto pending = ReadFrame(*client);
    ASSERT_TRUE(pending.has_value());
    EXPECT_EQ(pending->Type(), "pending");
    EXPECT_EQ(pending->doc.Find("state")->AsString(), "queued");

    const JsonValue status = server_->StatusJson();
    EXPECT_EQ(StatusCounter(status, "jobs", "submitted"), 2u);
    EXPECT_EQ(StatusCounter(status, "jobs", "rejected"), 1u);
    EXPECT_EQ(StatusCounter(status, "queue", "depth"), 2u);

    // Stop() with no workers must not hang: the backlog is failed so
    // the jobs reach a terminal state.
    server_->Stop();
    const JsonValue after = server_->StatusJson();
    EXPECT_EQ(StatusCounter(after, "jobs", "failed"), 2u);
}

/** A study submission over the associativity axis. */
JsonValue
StudyRequest(const std::string &kernel, double scale,
             std::vector<double> assocs,
             const std::string &policy = std::string())
{
    JsonValue req = JsonValue::Object();
    req.Set("type", "submit");
    req.Set("kernel", kernel);
    req.Set("scale", scale);
    req.Set("sweep", "study");
    JsonValue axis = JsonValue::Array();
    for (const double a : assocs) {
        axis.Push(a);
    }
    req.Set("llc_assoc", std::move(axis));
    if (!policy.empty()) {
        req.Set("policy", policy);
    }
    return req;
}

TEST_F(ServeTest, StudySubmissionAnswersTheAssociativityAxis)
{
    StartServer("study", 1);
    auto client = Connect();
    ASSERT_NE(client, nullptr);

    const SweepRun run = RunSweep(
        *client, StudyRequest("texture_tiling", 0.125, {1, 2, 4}));
    ASSERT_EQ(run.results.size(), 3u);
    EXPECT_EQ(run.done.doc.Find("sweep")->AsString(), "study");
    EXPECT_EQ(run.done.doc.Find("replayed")->AsBool(false), true);

    // Tracked points: exact writebacks, full counters, per-point
    // geometry in the frame.
    const auto frame = JsonParse(run.results[1]);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(FieldU64(*frame, "llc_assoc"), 2u);
    EXPECT_EQ(frame->Find("policy")->AsString(), "wb");
    EXPECT_TRUE(frame->Find("writebacks_exact")->AsBool(false));
    EXPECT_TRUE(frame->Find("counters")->is_object());

    const JsonValue status = server_->StatusJson();
    EXPECT_EQ(StatusCounter(status, "replay", "profile_passes"), 1u);
    EXPECT_EQ(StatusCounter(status, "profiles", "misses"), 1u);
    EXPECT_EQ(StatusCounter(status, "profiles", "entries"), 1u);
}

TEST_F(ServeTest, StudyFramesAreIdenticalWithShardedPassesOnAndOff)
{
    // Two sweep threads admit a sharded pass at the host geometry;
    // PIM_SHARD_PASS=off runs the same pass as one shard.  The frames
    // must not tell them apart, and profiles.sharded says which ran.
    std::vector<std::string> frames[2];
    for (const bool shard : {true, false}) {
        const sim::ShardPassSwitch guard(shard);
        StartServer(shard ? "study_sharded" : "study_serial", 1, 16, 2);
        auto client = Connect();
        ASSERT_NE(client, nullptr);
        const SweepRun run = RunSweep(
            *client, StudyRequest("texture_tiling", 0.125, {1, 2, 4, 8}));
        ASSERT_EQ(run.results.size(), 4u);
        frames[shard ? 0 : 1] = run.results;
        const JsonValue status = server_->StatusJson();
        EXPECT_EQ(StatusCounter(status, "replay", "profile_passes"), 1u);
        EXPECT_EQ(StatusCounter(status, "profiles", "sharded"),
                  shard ? 1u : 0u);
        server_->Stop();
    }
    EXPECT_EQ(frames[0], frames[1]);
}

TEST_F(ServeTest, RepeatStudyWithChangedUntrackedAxisNeedsNoReplay)
{
    StartServer("study_memo", 1);
    auto client = Connect();
    ASSERT_NE(client, nullptr);

    // First study: associativities {2, 4} — the pass tracks exactly
    // those, and costs the service its single profiling replay.
    const SweepRun first = RunSweep(
        *client, StudyRequest("texture_tiling", 0.125, {2, 4}));
    ASSERT_EQ(first.results.size(), 2u);
    EXPECT_EQ(first.done.doc.Find("replayed")->AsBool(false), true);

    // Second study: a CHANGED, never-tracked axis {3, 6}.  It must be
    // served entirely from the memoized pass snapshot: zero new
    // replays, hits/misses exact, writebacks flagged approximate.
    const SweepRun second = RunSweep(
        *client, StudyRequest("texture_tiling", 0.125, {3, 6}));
    ASSERT_EQ(second.results.size(), 2u);
    EXPECT_EQ(second.done.doc.Find("replayed")->AsBool(true), false);
    for (const std::string &raw : second.results) {
        const auto frame = JsonParse(raw);
        ASSERT_TRUE(frame.has_value());
        EXPECT_FALSE(frame->Find("writebacks_exact")->AsBool(true))
            << raw;
        EXPECT_TRUE(frame->Find("counters")->is_object());
    }

    // The status counters prove the single replay: one profiling pass
    // executed, one snapshot stored, second submission a memo hit.
    const JsonValue status = server_->StatusJson();
    EXPECT_EQ(StatusCounter(status, "jobs", "done"), 2u);
    EXPECT_EQ(StatusCounter(status, "replay", "profile_passes"), 1u);
    EXPECT_EQ(StatusCounter(status, "replay", "traces_recorded"), 1u);
    EXPECT_EQ(StatusCounter(status, "profiles", "hits"), 1u);
    EXPECT_EQ(StatusCounter(status, "profiles", "misses"), 1u);
    EXPECT_EQ(StatusCounter(status, "profiles", "entries"), 1u);

    // A non-allocating policy is a different pass of the same trace:
    // it may not reuse the allocating snapshot.
    const SweepRun wtna = RunSweep(
        *client,
        StudyRequest("texture_tiling", 0.125, {2, 4}, "wtna"));
    ASSERT_EQ(wtna.results.size(), 2u);
    EXPECT_EQ(wtna.done.doc.Find("replayed")->AsBool(false), true);
    const JsonValue after = server_->StatusJson();
    EXPECT_EQ(StatusCounter(after, "replay", "profile_passes"), 2u);
    EXPECT_EQ(StatusCounter(after, "profiles", "entries"), 2u);
}

TEST_F(ServeTest, StatusReportsCacheHitRates)
{
    StartServer("hit_rates", 1);
    auto client = Connect();
    ASSERT_NE(client, nullptr);

    // Before any lookup every rate is 0, not NaN.
    const JsonValue empty = server_->StatusJson();
    EXPECT_EQ(empty.Find("memo")->Find("hit_rate")->AsNumber(), 0.0);
    EXPECT_EQ(empty.Find("corpus")->Find("hit_rate")->AsNumber(), 0.0);
    EXPECT_EQ(empty.Find("profiles")->Find("hit_rate")->AsNumber(),
              0.0);

    const JsonValue req =
        SubmitRequest("texture_tiling", 0.125, {256, 512});
    RunSweep(*client, req); // 2 memo misses
    RunSweep(*client, req); // 2 memo hits

    const JsonValue status = server_->StatusJson();
    EXPECT_EQ(StatusCounter(status, "memo", "hits"), 2u);
    EXPECT_EQ(StatusCounter(status, "memo", "misses"), 2u);
    EXPECT_DOUBLE_EQ(
        status.Find("memo")->Find("hit_rate")->AsNumber(), 0.5);
    // The on-disk corpus is disabled in this fixture; its rate stays
    // well-defined (both submissions resolved from resident memory).
    EXPECT_EQ(status.Find("corpus")->Find("hit_rate")->AsNumber(),
              0.0);
}

TEST_F(ServeTest, ClientShutdownRequestDrainsTheServer)
{
    StartServer("shutdown", 1);
    auto client = Connect();
    ASSERT_NE(client, nullptr);
    EXPECT_FALSE(server_->ShutdownRequestedByClient());

    JsonValue req = JsonValue::Object();
    req.Set("type", "shutdown");
    ASSERT_TRUE(client->Send(req));
    auto bye = ReadFrame(*client);
    ASSERT_TRUE(bye.has_value());
    EXPECT_EQ(bye->Type(), "bye");
    EXPECT_TRUE(server_->ShutdownRequestedByClient());

    // What pim_serve's main loop does next; it must not hang, and a
    // second Stop() must be a no-op.
    server_->Stop();
    server_->Stop();

    // Submissions after shutdown are refused at the door.
    std::string error;
    EXPECT_EQ(ServeClient::Connect(socket_path_, &error), nullptr);
}

sim::CompactTrace
SmallCompactTrace()
{
    sim::AccessTrace raw;
    for (std::size_t i = 0; i < 20000; ++i) {
        raw.Append(0x40000 + (i % 512) * 64, 64,
                   i % 4 == 0 ? sim::AccessType::kWrite
                              : sim::AccessType::kRead);
    }
    return sim::CompactTrace::Encode(raw);
}

TEST(CorpusCache, MapStreamsStoredEntryAndPersistsProvenance)
{
    const std::string dir = testing::TempDir() + "pim_corpus_map_" +
                            std::to_string(::getpid());
    const sim::CompactTrace trace = SmallCompactTrace();
    const std::string key = CorpusKey("tiler", 0.5);
    EXPECT_EQ(key, "tiler@0.5");

    {
        CorpusCache cache(dir);
        EXPECT_TRUE(cache.enabled());
        EXPECT_FALSE(cache.Map(key).has_value()); // cold miss
        ASSERT_TRUE(cache.Store(key, "tiler", 0.5, trace,
                                "v9-g1234abc",
                                "2026-08-08T12:00:00Z"));
        auto mapped = cache.Map(key);
        ASSERT_TRUE(mapped.has_value());
        EXPECT_EQ(mapped->header_digest(), trace.Digest());
        EXPECT_EQ(mapped->entries(), trace.size());
        EXPECT_EQ(cache.files(), 1u);
        EXPECT_EQ(cache.bytes_mapped(), mapped->SizeBytes());
        EXPECT_EQ(cache.hits(), 1u);
        EXPECT_EQ(cache.misses(), 1u);
    }

    // The manifest carries the provenance rows verbatim.
    {
        std::ifstream in(dir + "/manifest.json");
        ASSERT_TRUE(in.good());
        const std::string text(std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>{});
        const auto doc = JsonParse(text, nullptr);
        ASSERT_TRUE(doc.has_value());
        const JsonValue *entries = doc->Find("entries");
        ASSERT_NE(entries, nullptr);
        ASSERT_EQ(entries->size(), 1u);
        const JsonValue &row = entries->at(0);
        EXPECT_EQ(row.Find("recorder")->AsString(), "v9-g1234abc");
        EXPECT_EQ(row.Find("created")->AsString(),
                  "2026-08-08T12:00:00Z");
        EXPECT_EQ(row.Find("kernel")->AsString(), "tiler");
    }

    // A warm restart maps without re-hashing the payload, and the
    // mapped stream replays bit-identically to the stored trace.
    {
        CorpusCache cache(dir);
        EXPECT_EQ(cache.files(), 1u);
        auto mapped = cache.Map(key);
        ASSERT_TRUE(mapped.has_value());
        sim::MemoryHierarchy ref(sim::HostHierarchyConfig());
        trace.ReplayInto(ref.Top());
        sim::MemoryHierarchy via(sim::HostHierarchyConfig());
        mapped->ReplayInto(via.Top());
        EXPECT_EQ(ref.Snapshot().dram.TotalBytes(),
                  via.Snapshot().dram.TotalBytes());
        EXPECT_EQ(ref.Snapshot().llc.Misses(),
                  via.Snapshot().llc.Misses());

        // bytes_mapped accumulates per successful Map.
        (void)cache.Map(key);
        EXPECT_EQ(cache.bytes_mapped(), 2 * mapped->SizeBytes());
    }

    const std::string file =
        ContentDigest::ToHex(trace.Digest()) + ".ctrace";
    std::remove((dir + "/" + file).c_str());
    std::remove((dir + "/manifest.json").c_str());
}

TEST(CorpusCache, MapDropsTamperedEntriesAsMisses)
{
    const std::string dir = testing::TempDir() + "pim_corpus_bad_" +
                            std::to_string(::getpid());
    const sim::CompactTrace trace = SmallCompactTrace();
    const std::string key = CorpusKey("blitter", 1.0);
    CorpusCache cache(dir);
    ASSERT_TRUE(cache.Store(key, "blitter", 1.0, trace));
    const std::string file =
        dir + "/" + ContentDigest::ToHex(trace.Digest()) + ".ctrace";

    // Truncate the container: the structural size check fails Open,
    // the entry is dropped from the manifest, and the caller sees a
    // plain miss (to re-record), never a bad replay.
    {
        std::ifstream in(file, std::ios::binary);
        std::string bytes(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>{});
        ASSERT_GT(bytes.size(), 100u);
        std::ofstream out(file,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() - 9));
    }
    EXPECT_FALSE(cache.Map(key).has_value());
    EXPECT_EQ(cache.files(), 0u);
    EXPECT_FALSE(cache.Map(key).has_value()); // stays a miss

    std::remove(file.c_str());
    std::remove((dir + "/manifest.json").c_str());
}

TEST(CorpusCache, DisabledCacheMissesWithoutTouchingDisk)
{
    CorpusCache cache{std::string()};
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.Map("any@1").has_value());
    EXPECT_EQ(cache.bytes_mapped(), 0u);
    EXPECT_EQ(cache.files(), 0u);
}

} // namespace
} // namespace pim::serve
