#include "c2b/serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "c2b/aps/dse.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/obs/journal.h"
#include "c2b/obs/report.h"
#include "c2b/serve/http.h"
#include "c2b/serve/jobs.h"

namespace c2b::serve {
namespace {

namespace fs = std::filesystem;

// All tests poke Server::handle directly — the job manager (runner
// threads, admission, journals) is fully live without a socket, so the
// suite exercises everything but the TCP accept loop.

HttpResponse get(Server& server, const std::string& path, const std::string& query = {}) {
  return server.handle(HttpRequest{"GET", path, query, ""});
}

HttpResponse post(Server& server, const std::string& path, const std::string& body) {
  return server.handle(HttpRequest{"POST", path, "", body});
}

/// Extracts the job id from a 202 submit response ({"id":N,...}).
std::uint64_t job_id(const HttpResponse& response) {
  const auto at = response.body.find("\"id\":");
  EXPECT_NE(at, std::string::npos) << response.body;
  return std::strtoull(response.body.c_str() + at + 5, nullptr, 10);
}

/// Polls GET /jobs/<id> until the state leaves queued/running.
std::string wait_done(Server& server, std::uint64_t id) {
  for (int i = 0; i < 600; ++i) {
    const auto response = get(server, "/jobs/" + std::to_string(id));
    EXPECT_EQ(response.status, 200);
    if (response.body.find("\"status\":\"done\"") != std::string::npos ||
        response.body.find("\"status\":\"failed\"") != std::string::npos)
      return response.body;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ADD_FAILURE() << "job " << id << " never finished";
  return {};
}

const std::string kTinyDse =
    R"({"type":"dse","workload":"stencil","instructions":2000,"per-core-cap":1000})";

TEST(ServeRoutes, HealthzMetricsStatsRespond) {
  Server server(ServerOptions{});
  EXPECT_EQ(get(server, "/healthz").body, "{\"ok\":1}");
  const auto metrics = get(server, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("counters"), std::string::npos);
  const auto stats = get(server, "/stats");
  EXPECT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"queued\":0"), std::string::npos);
  EXPECT_NE(stats.body.find("\"running_shares\":0"), std::string::npos);
}

TEST(ServeRoutes, UnknownRoutesAndMethodsRejected) {
  Server server(ServerOptions{});
  EXPECT_EQ(get(server, "/no-such-route").status, 404);
  EXPECT_EQ(get(server, "/jobs/99").status, 404);
  EXPECT_EQ(get(server, "/jobs/notanumber").status, 404);
  EXPECT_EQ(post(server, "/metrics", "").status, 405);
  EXPECT_EQ(get(server, "/shutdown").status, 405);
  EXPECT_EQ(server.handle(HttpRequest{"GET", "/jobs", "", ""}).status, 405);
}

TEST(ServeSubmit, MalformedAndUnknownBodiesRejected400) {
  Server server(ServerOptions{});
  EXPECT_EQ(post(server, "/jobs", "not json at all").status, 400);
  EXPECT_EQ(post(server, "/jobs", "{}").status, 400);  // missing type
  EXPECT_EQ(post(server, "/jobs", R"({"type":"teleport"})").status, 400);
  EXPECT_EQ(post(server, "/jobs", R"({"type":"dse","workload":"no-such-workload"})").status,
            400);
  EXPECT_EQ(post(server, "/jobs", R"({"type":"check","family":"no-such-family"})").status,
            400);
  // Bad values and unknown keys are rejected at the boundary by the request
  // schema the CLI flags share, and the 400 names the offending key.
  const struct {
    const char* body;
    const char* key;
  } rejected[] = {
      {R"({"type":"dse","workload":"stencil","power-budget":-5})", "power-budget"},
      {R"({"type":"dse","instructions":-1})", "instructions"},
      {R"({"type":"dse","per-core-cap":0})", "per-core-cap"},
      {R"({"type":"dse","instructions":1e30})", "instructions"},
      {R"({"type":"dse","surrogate-band":-3})", "surrogate-band"},
      {R"({"type":"dse","instuctions":5})", "instuctions"},
      {R"({"type":"dse","instructions":2.5})", "instructions"},
      {R"({"type":"aps","radius":0})", "radius"},
      {R"({"type":"aps","large-axes":1})", "large-axes"},
      {R"({"type":"dse","threads":0})", "threads"},
      {R"({"type":"check","family":"invariants","instructions":5})", "instructions"},
      // The body grammar is the journal line's, but "ts_ms" is no request
      // key, a key may appear once, and "type" must be a string.
      {R"({"type":"dse","ts_ms":5})", "ts_ms"},
      {R"({"type":"dse","instructions":20000,"instructions":30000})", "instructions"},
      {R"({"type":"dse","workload":"stencil","workload":"fft"})", "workload"},
      {R"({"type":"dse","instructions":20000,"instructions":"20000"})", "instructions"},
      {R"({"type":"dse","type":"aps"})", "type"},
      {R"({"type":5})", "type"},
  };
  for (const auto& entry : rejected) {
    const auto response = post(server, "/jobs", entry.body);
    EXPECT_EQ(response.status, 400) << entry.body;
    EXPECT_NE(response.body.find(std::string("\"error\":\"") + entry.key + ":"),
              std::string::npos)
        << response.body;
  }
  // Nothing above should have reached the queue.
  EXPECT_NE(get(server, "/stats").body.find("\"queued\":0,\"running\":0,\"done\":0"),
            std::string::npos);
}

TEST(ServeSubmit, ZeroQueueCapacityRejects429) {
  ServerOptions options;
  options.max_queue = 0;
  Server server(options);
  const auto response = post(server, "/jobs", kTinyDse);
  EXPECT_EQ(response.status, 429);
  EXPECT_NE(response.body.find("queue full"), std::string::npos);
}

TEST(ServeJobs, ConcurrentJobsAllCompleteWithIdenticalResults) {
  ServerOptions options;
  options.max_active = 2;
  Server server(options);
  // Four identical jobs against two runners: all must complete, and the
  // optimum must be bitwise-identical across them regardless of admission
  // interleaving or shared-cache state. (Cache accounting fields like
  // "simulations" legitimately differ — later jobs run warm.)
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    const auto response = post(server, "/jobs", kTinyDse);
    ASSERT_EQ(response.status, 202) << response.body;
    ids.push_back(job_id(response));
  }
  std::vector<std::string> bodies;
  for (const auto id : ids) bodies.push_back(wait_done(server, id));
  const auto field = [](const std::string& body, const std::string& key) {
    const auto at = body.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key << " missing in " << body;
    if (at == std::string::npos) return std::string();
    const auto start = at + key.size() + 3;
    return body.substr(start, body.find_first_of(",}", start) - start);
  };
  for (const auto& body : bodies) {
    EXPECT_NE(body.find("\"status\":\"done\""), std::string::npos) << body;
    EXPECT_EQ(field(body, "best_time"), field(bodies[0], "best_time"));
    EXPECT_EQ(field(body, "best_index"), field(bodies[0], "best_index"));
    EXPECT_EQ(field(body, "feasible"), field(bodies[0], "feasible"));
  }
  const auto stats = get(server, "/stats").body;
  EXPECT_NE(stats.find("\"done\":4"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"running_shares\":0"), std::string::npos) << stats;
}

TEST(ServeJobs, OverwideShareIsClampedAndStillRuns) {
  ServerOptions options;
  options.max_active = 2;
  options.threads_total = 2;
  Server server(options);
  // A job claiming more threads than exist must be clamped to
  // threads_total and admitted, not deadlocked at the queue front.
  const std::string wide =
      R"({"type":"dse","workload":"stencil","instructions":2000,"per-core-cap":1000,"threads":64})";
  const auto first = post(server, "/jobs", wide);
  ASSERT_EQ(first.status, 202);
  const auto second = post(server, "/jobs", wide);
  ASSERT_EQ(second.status, 202);
  EXPECT_NE(wait_done(server, job_id(first)).find("\"status\":\"done\""),
            std::string::npos);
  EXPECT_NE(wait_done(server, job_id(second)).find("\"status\":\"done\""),
            std::string::npos);
}

TEST(ServeJobs, FailedJobReportsErrorNotCrash) {
  Server server(ServerOptions{});
  // Passes validation (every value in range) but fails at execution time:
  // an area of 2 leaves no room for any design on the grid.
  const auto response = post(server, "/jobs", R"({"type":"dse","workload":"stencil","area":2})");
  ASSERT_EQ(response.status, 202) << response.body;
  const auto body = wait_done(server, job_id(response));
  EXPECT_NE(body.find("\"status\":\"failed\""), std::string::npos) << body;
  EXPECT_NE(body.find("no feasible design"), std::string::npos) << body;
}

TEST(ServeJobs, EventsEndpointStreamsJournalWithFromCursor) {
  const fs::path spool = fs::path(::testing::TempDir()) / "serve_spool";
  fs::remove_all(spool);
  fs::create_directories(spool);
  ServerOptions options;
  options.spool_dir = spool.string();
  {
    Server server(options);
    const auto response = post(server, "/jobs", kTinyDse);
    ASSERT_EQ(response.status, 202);
    const auto id = job_id(response);
    wait_done(server, id);

    const auto events = get(server, "/jobs/" + std::to_string(id) + "/events");
    EXPECT_EQ(events.status, 200);
    EXPECT_NE(events.body.find("\"type\":\"job_begin\""), std::string::npos)
        << events.body;
    EXPECT_NE(events.body.find("\"type\":\"job_end\""), std::string::npos) << events.body;
    const auto at = events.body.find("\"total\":");
    ASSERT_NE(at, std::string::npos);
    const std::size_t total = std::strtoull(events.body.c_str() + at + 8, nullptr, 10);
    EXPECT_GE(total, 2u);  // at least job_begin + job_end

    // Cursor past the end: valid response, empty slice, cursor echoed.
    const auto tail = get(server, "/jobs/" + std::to_string(id) + "/events",
                          "from=" + std::to_string(total));
    EXPECT_EQ(tail.status, 200);
    EXPECT_NE(tail.body.find("\"from\":" + std::to_string(total)), std::string::npos);
    EXPECT_NE(tail.body.find("\"events\":[]"), std::string::npos) << tail.body;

    // Mid-stream cursor returns strictly fewer events than the full replay.
    const auto slice =
        get(server, "/jobs/" + std::to_string(id) + "/events", "from=1");
    EXPECT_EQ(slice.status, 200);
    EXPECT_EQ(slice.body.find("\"type\":\"job_begin\""), std::string::npos)
        << slice.body;
  }
  fs::remove_all(spool);
}

// A job journal reads like a CLI run journal: `c2b report` finds the pool's
// thread count, the run_end of a finished job and the sweep's replay
// counts, the same counts the library reports for that sweep.
TEST(ServeJobs, JobJournalReportsThreadsRunEndAndBatchCounts) {
  const fs::path spool = fs::path(::testing::TempDir()) / "serve_report_spool";
  fs::remove_all(spool);
  fs::create_directories(spool);
  exec::SimCache::global().clear();
  ServerOptions options;
  options.spool_dir = spool.string();
  std::uint64_t id = 0;
  {
    Server server(options);
    const auto response = post(server, "/jobs", kTinyDse);
    ASSERT_EQ(response.status, 202);
    id = job_id(response);
    EXPECT_NE(wait_done(server, id).find("\"status\":\"done\""), std::string::npos);
  }
  obs::JournalReadStats stats;
  const auto records =
      obs::read_journal((spool / ("job-" + std::to_string(id) + ".jsonl")).string(), &stats);
  const obs::RunReport report = obs::build_report(records, stats);
  EXPECT_TRUE(report.saw_run_end);
  EXPECT_EQ(report.command, "dse");
  EXPECT_EQ(report.threads, static_cast<double>(exec::thread_count()));

  // The same sweep from a cold cache, as `c2b dse` runs it.
  std::string error;
  const auto request = JobRequest::parse(kTinyDse, &error);
  ASSERT_TRUE(request.has_value()) << error;
  exec::SimCache::global().clear();
  const FullDseResult direct =
      run_full_dse(request->sweep->context, make_design_space(request->sweep->axes));
  EXPECT_GT(direct.batch.chunks_shared, 0u);
  EXPECT_EQ(report.chunks_shared, static_cast<double>(direct.batch.chunks_shared));
  EXPECT_EQ(report.regen_avoided_accesses,
            static_cast<double>(direct.batch.regen_avoided_accesses));
  EXPECT_EQ(report.simd_steps, static_cast<double>(direct.batch.simd_steps));
  exec::SimCache::global().clear();
  fs::remove_all(spool);
}

TEST(ServeJobs, NoSpoolMeansEmptyEventsArray) {
  Server server(ServerOptions{});
  const auto response = post(server, "/jobs", kTinyDse);
  ASSERT_EQ(response.status, 202);
  const auto id = job_id(response);
  wait_done(server, id);
  const auto events = get(server, "/jobs/" + std::to_string(id) + "/events");
  EXPECT_EQ(events.status, 200);
  EXPECT_NE(events.body.find("\"total\":0"), std::string::npos) << events.body;
  EXPECT_NE(events.body.find("\"events\":[]"), std::string::npos) << events.body;
}

TEST(ServeJobs, CheckJobRunsAnOracleFamily) {
  Server server(ServerOptions{});
  const auto response =
      post(server, "/jobs", R"({"type":"check","family":"invariants","seed":7})");
  ASSERT_EQ(response.status, 202) << response.body;
  const auto body = wait_done(server, job_id(response));
  EXPECT_NE(body.find("\"status\":\"done\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"family\":\"invariants\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"failures\":0"), std::string::npos) << body;
}

TEST(ServeShutdown, SubmitAfterShutdownIs503) {
  Server server(ServerOptions{});
  const auto shutdown = post(server, "/shutdown", "");
  EXPECT_EQ(shutdown.status, 200);
  EXPECT_NE(shutdown.body.find("\"draining\":1"), std::string::npos);
  const auto response = post(server, "/jobs", kTinyDse);
  EXPECT_EQ(response.status, 503);
}

}  // namespace
}  // namespace c2b::serve
