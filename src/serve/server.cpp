#include "c2b/serve/server.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "c2b/exec/pool.h"
#include "c2b/obs/context.h"
#include "c2b/obs/export.h"
#include "c2b/obs/journal.h"
#include "c2b/obs/obs.h"

namespace c2b::serve {
namespace {

HttpResponse json_error(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.body = "{\"error\":\"" + obs::json_escape(message) + "\"}";
  return response;
}

enum class JobState { kQueued, kRunning, kDone, kFailed };

const char* state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

struct Job {
  std::uint64_t id = 0;
  JobRequest request;
  JobState state = JobState::kQueued;
  std::size_t share = 1;  ///< admission weight, clamped to [1, threads_total]
  JobOutcome outcome;
  std::string journal_path;  ///< empty when no spool directory
};

}  // namespace

struct Server::Impl {
  ServerOptions options;
  HttpServer http;

  std::mutex mutex;
  std::condition_variable work_cv;   ///< runners: queue/admission changes
  std::condition_variable drain_cv;  ///< drain(): a job finished
  std::vector<std::unique_ptr<Job>> jobs;      // index = id
  std::deque<std::uint64_t> queue;             // FIFO of queued job ids
  std::size_t unfinished = 0;                  // queued + running
  std::size_t running_shares = 0;
  bool accepting = true;
  bool stopping = false;
  std::vector<std::thread> runners;

  explicit Impl(ServerOptions opts) : options(std::move(opts)) {
    if (options.max_active == 0) options.max_active = 1;
    if (options.threads_total == 0) options.threads_total = exec::thread_count();
    if (options.threads_total == 0) options.threads_total = 1;
    runners.reserve(options.max_active);
    for (std::size_t i = 0; i < options.max_active; ++i)
      runners.emplace_back([this] { runner_loop(); });
  }

  ~Impl() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      stopping = true;
    }
    work_cv.notify_all();
    for (std::thread& t : runners) t.join();
  }

  // ------------------------------------------------------------------ jobs

  HttpResponse submit(const std::string& body) {
    std::string error;
    auto request = JobRequest::parse(body, &error);
    if (!request.has_value()) {
      C2B_COUNTER_INC("serve.jobs.rejected");
      return json_error(400, error);
    }
    std::unique_lock<std::mutex> lock(mutex);
    if (!accepting) {
      C2B_COUNTER_INC("serve.jobs.rejected");
      return json_error(503, "shutting down");
    }
    if (unfinished >= options.max_queue) {
      C2B_COUNTER_INC("serve.jobs.rejected");
      return json_error(429, "queue full (" + std::to_string(options.max_queue) +
                                 " unfinished jobs)");
    }
    auto job = std::make_unique<Job>();
    job->id = jobs.size();
    job->request = std::move(*request);
    job->share = std::clamp<std::size_t>(job->request.threads, 1,
                                         options.threads_total);
    if (!options.spool_dir.empty())
      job->journal_path =
          options.spool_dir + "/job-" + std::to_string(job->id) + ".jsonl";
    const std::uint64_t id = job->id;
    jobs.push_back(std::move(job));
    queue.push_back(id);
    ++unfinished;
    lock.unlock();
    C2B_COUNTER_INC("serve.jobs.submitted");
    work_cv.notify_one();
    HttpResponse response;
    response.status = 202;
    response.body = "{\"id\":" + std::to_string(id) + ",\"status\":\"queued\"}";
    return response;
  }

  void runner_loop() {
    for (;;) {
      std::unique_lock<std::mutex> lock(mutex);
      // FIFO admission: only the front job is considered, so a wide job
      // cannot be starved by narrow ones slipping past it.
      work_cv.wait(lock, [this] {
        if (stopping) return true;
        return !queue.empty() &&
               running_shares + jobs[queue.front()]->share <= options.threads_total;
      });
      if (queue.empty() ||
          running_shares + jobs[queue.front()]->share > options.threads_total) {
        if (stopping) return;
        continue;
      }
      Job* job = jobs[queue.front()].get();
      queue.pop_front();
      job->state = JobState::kRunning;
      running_shares += job->share;
      lock.unlock();

      C2B_COUNTER_INC("serve.jobs.started");
      execute(*job);

      lock.lock();
      job->state = job->outcome.ok ? JobState::kDone : JobState::kFailed;
      running_shares -= job->share;
      --unfinished;
      lock.unlock();
      if (job->outcome.ok) {
        C2B_COUNTER_INC("serve.jobs.completed");
      } else {
        C2B_COUNTER_INC("serve.jobs.failed");
      }
      work_cv.notify_all();  // freed shares may admit the next job
      drain_cv.notify_all();
    }
  }

  void execute(Job& job) {
    std::unique_ptr<obs::RunJournal> journal;
    if (!job.journal_path.empty()) journal = obs::RunJournal::open(job.journal_path);
    const obs::ScopedObsContext scope(obs::ObsContext{journal.get(), nullptr});
    // A job journal is a run journal like the CLI's (run_begin ... run_end
    // around the sweep's own events), so `c2b report` reads it the same way.
    if (journal) {
      journal->emit(obs::JournalEvent("job_begin")
                        .count("id", job.id)
                        .str("job_type", job.request.type)
                        .count("threads_share", job.share));
      journal->emit_run_begin(job.request.type, exec::thread_count(), "");
    }
    job.outcome = run_job(job.request);
    if (journal) {
      journal->emit_run_end(job.outcome.ok ? 0 : 1);
      journal->emit(obs::JournalEvent("job_end")
                        .count("id", job.id)
                        .count("ok", job.outcome.ok ? 1 : 0)
                        .str("error", job.outcome.error));
      journal->flush();
    }
  }

  void drain() {
    std::unique_lock<std::mutex> lock(mutex);
    accepting = false;
    drain_cv.wait(lock, [this] { return unfinished == 0; });
  }

  // ---------------------------------------------------------------- routes

  HttpResponse job_status(std::uint64_t id) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (id >= jobs.size()) return json_error(404, "no job " + std::to_string(id));
    const Job& job = *jobs[id];
    std::string body = "{\"id\":" + std::to_string(id) + ",\"status\":\"" +
                       state_name(job.state) + "\"";
    if (job.state == JobState::kDone || job.state == JobState::kFailed) {
      body += ",\"ok\":" + std::string(job.outcome.ok ? "1" : "0");
      if (!job.outcome.error.empty())
        body += ",\"error\":\"" + obs::json_escape(job.outcome.error) + "\"";
      body += ",\"result\":" + job.outcome.result_json;
    }
    body += "}";
    HttpResponse response;
    response.body = std::move(body);
    return response;
  }

  HttpResponse job_events(std::uint64_t id, const std::string& query) {
    std::string path;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (id >= jobs.size()) return json_error(404, "no job " + std::to_string(id));
      path = jobs[id]->journal_path;
    }
    std::size_t from = 0;
    if (query.rfind("from=", 0) == 0)
      from = static_cast<std::size_t>(std::strtoull(query.c_str() + 5, nullptr, 10));

    // Validated raw journal lines: each line is already a JSON object, so
    // the slice [from, end) splices straight into a JSON array. Torn tails
    // (the journal may be mid-flush) are skipped exactly like `c2b report`
    // skips them.
    std::vector<std::string> lines;
    if (!path.empty()) {
      std::ifstream in(path);
      std::string line;
      obs::JournalRecord record;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (obs::parse_journal_line(line, record)) lines.push_back(line);
      }
    }
    std::string body = "{\"from\":" + std::to_string(from) +
                       ",\"total\":" + std::to_string(lines.size()) + ",\"events\":[";
    for (std::size_t i = from; i < lines.size(); ++i) {
      if (i != from) body += ',';
      body += lines[i];
    }
    body += "]}";
    HttpResponse response;
    response.body = std::move(body);
    return response;
  }

  HttpResponse stats() {
    const std::lock_guard<std::mutex> lock(mutex);
    std::size_t queued = 0, running = 0, done = 0, failed = 0;
    for (const auto& job : jobs) {
      switch (job->state) {
        case JobState::kQueued: ++queued; break;
        case JobState::kRunning: ++running; break;
        case JobState::kDone: ++done; break;
        case JobState::kFailed: ++failed; break;
      }
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"queued\":%zu,\"running\":%zu,\"done\":%zu,\"failed\":%zu,"
                  "\"running_shares\":%zu,\"max_active\":%zu,\"max_queue\":%zu,"
                  "\"threads_total\":%zu}",
                  queued, running, done, failed, running_shares, options.max_active,
                  options.max_queue, options.threads_total);
    HttpResponse response;
    response.body = buf;
    return response;
  }

  HttpResponse handle(const HttpRequest& request) {
    if (request.path == "/healthz") {
      HttpResponse response;
      response.body = "{\"ok\":1}";
      return response;
    }
    if (request.path == "/metrics") {
      if (request.method != "GET") return json_error(405, "GET only");
      HttpResponse response;
      response.body = obs::metrics_json();
      return response;
    }
    if (request.path == "/stats") return stats();
    if (request.path == "/shutdown") {
      if (request.method != "POST") return json_error(405, "POST only");
      {
        const std::lock_guard<std::mutex> lock(mutex);
        accepting = false;
      }
      http.stop();
      HttpResponse response;
      response.body = "{\"ok\":1,\"draining\":1}";
      return response;
    }
    if (request.path == "/jobs") {
      if (request.method != "POST") return json_error(405, "POST only");
      return submit(request.body);
    }
    if (request.path.rfind("/jobs/", 0) == 0) {
      const std::string rest = request.path.substr(6);
      char* end = nullptr;
      const std::uint64_t id = std::strtoull(rest.c_str(), &end, 10);
      if (end == rest.c_str()) return json_error(404, "bad job id");
      const std::string tail(end);
      if (tail.empty()) return job_status(id);
      if (tail == "/events") return job_events(id, request.query);
      return json_error(404, "no route " + request.path);
    }
    return json_error(404, "no route " + request.path);
  }
};

Server::Server(ServerOptions options) : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() = default;

bool Server::start(std::string* error) {
  return impl_->http.listen(impl_->options.host, impl_->options.port, error);
}

int Server::port() const noexcept { return impl_->http.port(); }

void Server::run() {
  impl_->http.serve([this](const HttpRequest& request) { return impl_->handle(request); });
  // The listener is down; every accepted job still completes ("drain,
  // never drop") before run() returns.
  impl_->drain();
}

void Server::stop() { impl_->http.stop(); }

HttpResponse Server::handle(const HttpRequest& request) { return impl_->handle(request); }

}  // namespace c2b::serve
