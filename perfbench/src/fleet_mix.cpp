// fleet_mix: the service path, in process. One client keeps 4 requests
// outstanding (closed loop) against the consistent-hash router over the
// pipe front transport; the router forwards over localhost TCP RSF frames
// to 2 reschedd backends (workers=1, result cache on, journal on with
// sync=batch). Mix: 70% schedule/pa, 15% schedule/par (32 restarts), 15%
// simulate (8 trials, half fault-free, half at fault rate 0.05), on suite
// instances of 10..60 tasks; about half the requests repeat an earlier
// key. Hits exercise parse, digest, admission, journal, framing and
// routing; misses the solve and the validator; simulate is the only path
// into the simulator.
//
// Before timing, one PA request per pool instance (seed 0, a key the
// stream never sends) warms each backend's floorplan cache, as a
// long-running daemon's would be; without it, cold floorplan DFS on the
// first touch of each instance (heavy-tailed) dominates the run.
#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <unistd.h>

#include "checks.hpp"
#include "io/instance_hash.hpp"
#include "io/instance_io.hpp"
#include "io/schedule_io.hpp"
#include "mirror.hpp"
#include "router/ring.hpp"
#include "router/router.hpp"
#include "sched/recovery.hpp"
#include "sched/validator.hpp"
#include "service/client.hpp"
#include "service/framing.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "sim/executor.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace resched;

namespace {

constexpr std::size_t kPoolMaxTasks = 60;
/// Ten suites (600 instances): the latency tail is set by requests queued
/// behind the costliest PA-R misses, and how many such instances a pool
/// holds is seed luck. Over five seeds, the spread (IQR over median) of
/// the p99 was 0.26 with three suites and 0.15 with ten.
constexpr std::size_t kPoolSuites = 10;
constexpr std::size_t kWindow = 4;
constexpr std::size_t kBackends = 2;
constexpr std::size_t kParIterations = 32;
constexpr std::size_t kSimTrials = 8;
constexpr std::size_t kTracedRequests = 600;
constexpr int kSetupRepeats = 5;
constexpr std::uint64_t kMixStream = 0xF1EE'0000'0000'0001ULL;
/// Error messages kept per kind of failure (the count is always kept).
constexpr std::size_t kMaxReported = 5;

enum class Kind { kPa, kPar, kSimNominal, kSimFaulted };

bool IsSimulate(Kind kind) {
  return kind == Kind::kSimNominal || kind == Kind::kSimFaulted;
}

struct Key {
  std::size_t instance = 0;
  Kind kind = Kind::kPa;
  std::uint64_t seed = 0;
};

/// The request sequence: a pure function of the workload seed. Each
/// request repeats an earlier key with probability 1/2, else draws a new
/// key (fresh seed, so a new key always costs a solve).
class MixStream {
 public:
  MixStream(std::uint64_t seed, std::size_t pool)
      : rng_(DeriveSeed(kMixStream ^ seed, 0)), pool_(pool) {}

  std::size_t Next() {
    if (!keys_.empty() && rng_.Bernoulli(0.5)) {
      return static_cast<std::size_t>(
          rng_.UniformInt(0, static_cast<std::int64_t>(keys_.size()) - 1));
    }
    Key key;
    key.instance = static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(pool_) - 1));
    const double r = rng_.UniformDouble();
    if (r < 0.70) {
      key.kind = Kind::kPa;
    } else if (r < 0.85) {
      key.kind = Kind::kPar;
    } else {
      key.kind = rng_.Bernoulli(0.5) ? Kind::kSimNominal : Kind::kSimFaulted;
    }
    key.seed = keys_.size() + 1;
    keys_.push_back(key);
    return keys_.size() - 1;
  }

  const Key& At(std::size_t index) const { return keys_[index]; }

 private:
  Rng rng_;
  std::size_t pool_;
  std::vector<Key> keys_;
};

struct Pool {
  std::vector<Instance> instances;
  std::vector<std::string> json;      ///< canonical instance text
  std::vector<std::uint64_t> points;  ///< router shard point per instance
};

std::uint64_t ShardPoint(const std::string& instance_json) {
  const Digest128 d =
      HashCanonicalText(JsonValue::Parse(instance_json).Dump(-1));
  return d.hi ^ d.lo;
}

Pool MakePool(std::uint64_t seed) {
  Pool pool;
  pool.instances = GenerateSuites(seed, kPoolSuites, kPoolMaxTasks);
  for (const Instance& inst : pool.instances) {
    pool.json.push_back(InstanceToJson(inst).Dump(-1));
    pool.points.push_back(ShardPoint(pool.json.back()));
  }
  return pool;
}

/// One PA request per pool instance under a seed the stream never uses.
std::vector<std::string> WarmupLines(const Pool& pool) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < pool.instances.size(); ++i) {
    std::string line = "{\"id\":\"w" + std::to_string(i) +
                       "\",\"verb\":\"schedule\",\"algo\":\"pa\",\"seed\":0,"
                       "\"instance\":" + pool.json[i] + "}";
    lines.push_back(std::move(line));
  }
  return lines;
}

std::string RequestLine(const Key& key, const std::string& id,
                        const std::string& instance_json) {
  std::string line = "{\"id\":\"" + id + "\",\"verb\":\"";
  line += IsSimulate(key.kind) ? "simulate" : "schedule";
  line += "\",\"algo\":\"";
  line += key.kind == Kind::kPar ? "par" : "pa";
  line += "\",\"seed\":" + std::to_string(key.seed);
  if (key.kind == Kind::kPar) {
    line += ",\"iterations\":" + std::to_string(kParIterations);
  }
  if (IsSimulate(key.kind)) {
    line += ",\"trials\":" + std::to_string(kSimTrials);
    line += key.kind == Kind::kSimFaulted ? ",\"fault_rate\":0.05"
                                          : ",\"fault_rate\":0";
  }
  line += ",\"instance\":" + instance_json + "}";
  return line;
}

router::HashRing MakeRing() {
  std::vector<std::string> names;
  for (std::size_t b = 0; b < kBackends; ++b) {
    names.push_back("be" + std::to_string(b));
  }
  return router::HashRing(names, std::vector<std::uint32_t>(kBackends, 1),
                          router::RouterOptions{}.vnodes_per_weight);
}

/// Error code of an error response body, empty for an ok body.
std::string ErrorCode(const std::string& body) {
  if (body.rfind("{\"error\":", 0) != 0) return {};
  const std::string marker = "\"code\":\"";
  const std::size_t at = body.find(marker);
  if (at == std::string::npos) return "unknown";
  const std::size_t start = at + marker.size();
  return body.substr(start, body.find('"', start) - start);
}

// ------------------------------------------------------------------ fleet --

/// One reschedd daemon on an ephemeral localhost TCP port.
class Backend {
 public:
  explicit Backend(const std::string& journal_path)
      : transport_("127.0.0.1", 0) {
    service::ServerOptions options;
    options.workers = 1;
    options.result_cache = true;
    // Far above the distinct keys of a run: no eviction, so every repeat
    // is a hit and the hit count reconciles exactly.
    options.result_cache_capacity = 1u << 16;
    options.journal_path = journal_path;
    options.journal_sync = service::JournalSync::kBatch;
    options.record_latency_samples = true;
    server_ = std::make_unique<service::RescheddServer>(transport_, options);
    thread_ = std::thread([this] { server_->Serve(); });
  }
  /// Stops the daemon through its own shutdown verb and joins it.
  void Shutdown() {
    service::RescheddClient client(
        service::ClientEndpoint::Tcp("127.0.0.1", Port()));
    (void)client.Submit("{\"verb\":\"shutdown\",\"id\":\"__stop\"}");
    thread_.join();
  }

  // Fallback for a run that aborted before Shutdown: closing the listener
  // from this thread wakes the blocked accept. (TSan reports that close
  // racing the accept in TcpListener, so the normal path avoids it.)
  ~Backend() {
    if (!thread_.joinable()) return;
    transport_.Close();
    thread_.join();
  }
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  std::uint16_t Port() const { return transport_.Port(); }
  service::ServiceCounters Counters() const { return server_->Counters(); }

 private:
  service::TcpServerTransport transport_;
  std::unique_ptr<service::RescheddServer> server_;
  std::thread thread_;
};

/// Router + backends; the client side is the router's pipe front.
class Fleet {
 public:
  Fleet(const std::string& dir, const Pool& pool) {
    std::filesystem::create_directories(dir);
    router::RouterOptions options;
    for (std::size_t b = 0; b < kBackends; ++b) {
      backends_.push_back(std::make_unique<Backend>(
          dir + "/be" + std::to_string(b) + ".journal"));
      router::RouterBackend rb;
      rb.name = "be" + std::to_string(b);
      rb.host = "127.0.0.1";
      rb.port = backends_.back()->Port();
      options.backends.push_back(rb);
    }
    router_ = std::make_unique<router::RescheddRouter>(pipe_, options);
    thread_ = std::thread([this] { router_->Serve(); });
    std::string line;
    if (!pipe_.Receive(line)) throw std::runtime_error("no router greeting");

    // First connection to each backend: one uncached all-software
    // request on an instance that shards to it.
    const router::HashRing ring = MakeRing();
    std::size_t pending = 0;
    for (std::size_t b = 0; b < kBackends; ++b) {
      for (std::size_t i = 0; i < pool.points.size(); ++i) {
        if (ring.Primary(pool.points[i]) != b) continue;
        pipe_.Send("{\"id\":\"warm" + std::to_string(b) +
                   "\",\"verb\":\"schedule\",\"algo\":\"allsw\","
                   "\"cache\":false,\"instance\":" +
                   pool.json[i] + "}");
        ++warmups_[b];
        ++pending;
        break;
      }
    }
    for (; pending > 0; --pending) (void)ExpectOk();
  }

  /// Sends `lines` (kWindow outstanding), requires every answer ok and
  /// returns the bodies by line index (lines carry ids w<index>).
  std::vector<std::string> Warm(const std::vector<std::string>& lines,
                                const Pool& pool) {
    const router::HashRing ring = MakeRing();
    std::vector<std::string> bodies(lines.size());
    std::size_t sent = 0;
    for (std::size_t done = 0; done < lines.size(); ++done) {
      for (; sent < lines.size() && sent - done < kWindow; ++sent) {
        pipe_.Send(lines[sent]);
        ++warmups_[ring.Primary(pool.points[sent])];
      }
      std::string line = ExpectOk();
      const std::size_t index =
          std::stoul(line.substr(8, line.find('"', 8) - 8));
      service::StripResponseId(line, bodies.at(index));
    }
    return bodies;
  }

  ~Fleet() { StopRouter(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  void Send(std::string line) { pipe_.Send(std::move(line)); }
  bool Receive(std::string& line) { return pipe_.Receive(line); }

  /// The router's stats body (answered inline by the router).
  JsonValue RouterStats() {
    pipe_.Send("{\"verb\":\"stats\",\"id\":\"__stats\"}");
    std::string line;
    while (pipe_.Receive(line)) {
      if (line.rfind("{\"id\":\"__stats\"", 0) == 0) {
        return JsonValue::Parse(line);
      }
    }
    throw std::runtime_error("router closed before answering stats");
  }

  /// Front EOF: the router drains and releases its backend connections
  /// without shutting the backends down.
  void StopRouter() {
    if (!thread_.joinable()) return;
    pipe_.CloseRequests();
    thread_.join();
  }

  /// Stops the router, then each backend through its shutdown verb.
  void Stop() {
    StopRouter();
    for (const std::unique_ptr<Backend>& backend : backends_) {
      backend->Shutdown();
    }
  }

  /// A backend's stats body over a direct connection (after StopRouter).
  JsonValue BackendStats(std::size_t b) {
    service::RescheddClient client(
        service::ClientEndpoint::Tcp("127.0.0.1", backends_[b]->Port()));
    return JsonValue::Parse(
        client.Submit("{\"verb\":\"stats\",\"id\":\"__bstats\"}").response);
  }

  const Backend& BackendAt(std::size_t b) const { return *backends_[b]; }
  /// Requests forwarded to backend `b` outside the measured stream.
  std::uint64_t Warmups(std::size_t b) const { return warmups_[b]; }

 private:
  std::string ExpectOk() {
    std::string line;
    std::string body;
    if (!pipe_.Receive(line) || !service::StripResponseId(line, body) ||
        !ErrorCode(body).empty()) {
      throw std::runtime_error("fleet warm-up failed: " + line.substr(0, 200));
    }
    return line;
  }

  std::vector<std::unique_ptr<Backend>> backends_;  ///< outlive the router
  service::PipeTransport pipe_;
  std::unique_ptr<router::RescheddRouter> router_;
  std::thread thread_;
  std::uint64_t warmups_[kBackends] = {};
};

// ------------------------------------------------------------ closed loop --

struct LoopResult {
  std::vector<std::size_t> sent_keys;     ///< key of request q<i>
  std::vector<double> latency_ms;         ///< +inf for failed requests
  std::vector<double> done_at;            ///< NowSeconds() at the response
  std::map<std::size_t, std::string> first_body;  ///< key -> body
  std::vector<std::string> bodies;        ///< per request (traced run only)
  std::uint64_t ok = 0;
  double seconds = 0.0;
};

/// Drives the fleet with kWindow requests outstanding until `deadline`
/// (or `max_requests` sent), then drains. Checks byte identity of repeats
/// as responses arrive, and samples `probe` (when given) between them.
LoopResult ClosedLoop(Fleet& fleet, MixStream& stream, const Pool& pool,
                      double deadline, std::size_t max_requests,
                      bool keep_bodies, SpeedProbe* probe, Outcome& out) {
  LoopResult result;
  std::map<std::string, std::pair<double, std::size_t>> inflight;
  std::size_t divergent = 0;
  const double start = NowSeconds();
  std::string line;
  for (;;) {
    while (inflight.size() < kWindow &&
           result.sent_keys.size() < max_requests && NowSeconds() < deadline) {
      const std::size_t key = stream.Next();
      const std::string id = "q" + std::to_string(result.sent_keys.size());
      std::string request =
          RequestLine(stream.At(key), id, pool.json[stream.At(key).instance]);
      inflight[id] = {NowSeconds(), result.sent_keys.size()};
      result.sent_keys.push_back(key);
      result.latency_ms.push_back(0.0);
      result.done_at.push_back(0.0);
      if (keep_bodies) result.bodies.emplace_back();
      fleet.Send(std::move(request));
      ++out.attempted;
    }
    if (inflight.empty()) break;
    if (!fleet.Receive(line)) throw std::runtime_error("router closed mid-run");
    const double now = NowSeconds();

    const std::size_t id_end = line.find('"', 7);
    const std::string id =
        line.rfind("{\"id\":\"", 0) == 0 ? line.substr(7, id_end - 7) : "";
    const auto it = inflight.find(id);
    std::string body;
    if (it == inflight.end() || !service::StripResponseId(line, body)) {
      out.Fail("unmatched response: " + line.substr(0, 200));
      continue;
    }
    const std::size_t index = it->second.second;
    const double sent_at = it->second.first;
    inflight.erase(it);
    result.done_at[index] = now;
    if (probe != nullptr) probe->Sample();

    const std::string code = ErrorCode(body);
    if (!code.empty()) {
      ++out.failed;
      ++out.refused[code];
      result.latency_ms[index] = std::numeric_limits<double>::infinity();
      continue;
    }
    ++out.succeeded;
    ++result.ok;
    result.latency_ms[index] = (now - sent_at) * 1e3;
    const std::size_t key = result.sent_keys[index];
    const auto [first, inserted] = result.first_body.emplace(key, body);
    if (!inserted && first->second != body && ++divergent <= kMaxReported) {
      out.Fail(id + ": response body differs from an earlier response to "
                    "the same key");
    }
    if (keep_bodies) result.bodies[index] = std::move(body);
  }
  result.seconds = NowSeconds() - start;
  if (divergent > kMaxReported) {
    out.Fail(std::to_string(divergent) + " repeated keys answered differently");
  }
  return result;
}

/// Parses every distinct key's body back and re-validates it.
void CheckBodies(const Pool& pool, const MixStream& stream,
                 const LoopResult& loop, Outcome& out) {
  std::size_t bad = 0;
  for (const auto& [key_index, body] : loop.first_body) {
    const Key& key = stream.At(key_index);
    const Instance& inst = pool.instances[key.instance];
    std::string why;
    if (IsSimulate(key.kind)) {
      why = CheckSimulateBody(body, kSimTrials, key.kind == Kind::kSimNominal);
    } else {
      why = CheckScheduleBody(inst, body);
    }
    if (!why.empty() && ++bad <= kMaxReported) {
      out.Fail(inst.name + " (key " + std::to_string(key_index) + "): " + why);
    }
  }
  if (bad > kMaxReported) {
    out.Fail(std::to_string(bad) + " response bodies failed their checks");
  }
}

void SelfTest(const Pool& pool, const MixStream& stream, const LoopResult& loop,
              Outcome& out) {
  for (const auto& [key_index, body] : loop.first_body) {
    const Key& key = stream.At(key_index);
    if (IsSimulate(key.kind)) continue;
    const Instance& inst = pool.instances[key.instance];
    const JsonValue doc = JsonValue::Parse(body);
    NegativeSelfTest(inst, ScheduleFromJson(inst, doc.At("schedule")), body,
                     out);
    return;
  }
  out.Fail("self-test: no schedule response to corrupt");
}

// ------------------------------------------------------------ direct path --

/// The traced run's single-threaded replay of what the router and a
/// backend do with one request, through the library's public functions.
class Direct {
 public:
  Direct(Tracer& tracer, const std::string& dir, const Instance& any)
      : tracer_(tracer),
        mirror_(tracer),
        fp_cache_(any.platform.Device()),
        journal_(dir + "/direct.journal", service::JournalSync::kBatch),
        ring_(MakeRing()),
        listener_("127.0.0.1", 0),
        client_(StreamSocket::ConnectTcp("127.0.0.1", listener_.Port())),
        client_reader_(client_) {
    std::optional<StreamSocket> accepted = listener_.Accept();
    if (!accepted) throw std::runtime_error("frame echo: accept failed");
    server_ = std::move(*accepted);
    echo_ = std::thread([this] {
      service::FrameReader reader(server_);
      std::string payload;
      while (reader.Read(payload) == service::FrameResult::kFrame) {
        if (!service::WriteFrame(server_, payload)) break;
      }
    });
  }

  ~Direct() {
    client_.Shutdown();
    echo_.join();
  }
  Direct(const Direct&) = delete;
  Direct& operator=(const Direct&) = delete;

  /// Returns the body a backend answers `line` with.
  std::string Handle(const std::string& id, const std::string& line,
                     Outcome& out) {
    ScopedSpan root(tracer_, "bench.request");
    JsonValue doc;
    {
      ScopedSpan span(tracer_, "io.json_parse");
      doc = JsonValue::Parse(line, service::RequestParseLimits());
    }
    std::uint64_t point = 0;
    {
      ScopedSpan span(tracer_, "router.shard_key");
      const Digest128 d = HashCanonicalText(doc.At("instance").Dump(-1));
      point = d.hi ^ d.lo;
    }
    {
      ScopedSpan span(tracer_, "router.ring_lookup");
      ++primary_[ring_.Preference(point).front()];
    }
    std::string echoed;
    {
      ScopedSpan span(tracer_, "service.frame_roundtrip");
      if (!service::WriteFrame(client_, line) ||
          client_reader_.Read(echoed) != service::FrameResult::kFrame) {
        throw std::runtime_error("frame echo failed");
      }
    }
    if (echoed != line) {
      out.Fail(id + ": RSF frame round trip altered the line");
    }

    service::Request request;
    {
      ScopedSpan span(tracer_, "service.parse_request");
      request = service::ParseRequest(line);
    }
    Digest128 digest;
    {
      ScopedSpan span(tracer_, "io.instance_digest");
      digest = HashInstance(*request.instance);
    }
    if (digest != request.instance_digest) {
      out.Fail(id + ": HashInstance disagrees with the request digest");
    }
    Digest128 key;
    {
      ScopedSpan span(tracer_, "service.request_key");
      key = HashCanonicalText(service::RequestKeyText(request));
    }
    std::string body;
    const char* served = "cache";
    const auto hit = cache_.find({key.hi, key.lo});
    if (hit != cache_.end()) {
      body = hit->second;
      ++hits_;
    } else {
      body = Execute(request, out);
      cache_.emplace(std::make_pair(key.hi, key.lo), body);
      served = "exec";
      ++executed_;
    }
    {
      ScopedSpan span(tracer_, "service.journal_append");
      journal_.AppendRequest(id, line);
      journal_.AppendResponse(id, service::WithId(id, body), served);
    }
    return body;
  }

  /// Runs the warm-up requests untraced, then forgets their counts; the
  /// caches they filled stay, as they do on the backends.
  void Warm(const std::vector<std::string>& lines, Outcome& out) {
    tracer_.SetEnabled(false);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      (void)Handle("w" + std::to_string(i), lines[i], out);
    }
    tracer_.SetEnabled(true);
    mirror_.ResetCounts();
    hits_ = 0;
    executed_ = 0;
    for (std::uint64_t& p : primary_) p = 0;
  }

  Mirror& MirrorRef() { return mirror_; }
  void ReconcileFloorplan() { mirror_.Reconcile(fp_cache_, fp_model_); }
  std::uint64_t Hits() const { return hits_; }
  std::uint64_t Executed() const { return executed_; }
  std::uint64_t Primary(std::size_t b) const { return primary_[b]; }

 private:
  Schedule Compute(const service::Request& request, std::size_t& iterations) {
    const Instance& inst = *request.instance;
    PaOptions pa_options;
    pa_options.module_reuse = request.sched.module_reuse;
    pa_options.sw_balancing = request.sched.sw_balancing;
    pa_options.run_floorplan = request.sched.run_floorplan;
    pa_options.seed = request.sched.seed;
    iterations = 0;
    if (request.sched.algo == "par") {
      PaROptions par;
      par.base = pa_options;
      par.time_budget_seconds = request.sched.budget_seconds;
      par.max_iterations = request.sched.iterations;
      par.threads = 1;
      par.seed = request.sched.seed;
      PaRResult result = mirror_.SchedulePaR(inst, par, &fp_cache_, &fp_model_);
      iterations = result.iterations;
      return std::move(result.best);
    }
    return mirror_.SchedulePa(inst, pa_options, &fp_cache_, &fp_model_);
  }

  std::string Execute(const service::Request& request, Outcome& out) {
    const Instance& inst = *request.instance;
    std::size_t iterations = 0;
    const Schedule schedule = Compute(request, iterations);
    if (request.verb == service::Verb::kSchedule) {
      bool valid = false;
      {
        ScopedSpan span(tracer_, "sched.validate");
        valid = ValidateSchedule(inst, schedule).ok();
      }
      if (!valid) {
        out.Fail(inst.name + ": direct path produced an invalid schedule");
      }
      ScopedSpan span(tracer_, "io.schedule_to_json");
      return ScheduleResponseBody(inst, request.instance_digest.ToHex(),
                                  request.sched.algo, schedule, iterations);
    }
    return Simulate(request, schedule);
  }

  /// The server's ExecuteSimulate, trial by trial.
  std::string Simulate(const service::Request& request,
                       const Schedule& schedule) {
    const Instance& inst = *request.instance;
    const bool nominal = request.sim.fault_rate == 0.0;
    sim::SimOptions sim_options;
    sim_options.task_jitter = request.sim.jitter;
    sim_options.reconf_jitter = request.sim.jitter;
    sim_options.recovery.policy = ParseRecoveryPolicy(request.sim.policy);
    std::size_t survived = 0;
    std::size_t invalid = 0;
    std::size_t lost = 0;
    std::vector<double> stretches;
    sim::RecoveryStats totals;
    for (std::size_t i = 0; i < request.sim.trials; ++i) {
      sim::FaultScenario scenario;
      {
        ScopedSpan span(tracer_, "sim.fault_scenario");
        scenario = sim::GenerateFaultScenario(
            schedule, sim::UniformFaultRates(request.sim.fault_rate),
            DeriveSeed(kFaultSeedStream ^ request.sched.seed, i));
      }
      sim_options.faults = scenario;
      sim_options.seed = DeriveSeed(kJitterSeedStream ^ request.sched.seed, i);
      try {
        sim::SimResult result;
        {
          ScopedSpan span(tracer_, nominal ? "sim.nominal_replay"
                                           : "sim.faulted_replay");
          result = sim::Simulate(inst, schedule, sim_options);
        }
        ValidationOptions vopt;
        vopt.executed = true;
        vopt.outages = sim::OutagesFromScenario(scenario);
        bool valid = false;
        {
          ScopedSpan span(tracer_, "sched.validate");
          valid = ValidateSchedule(inst, result.executed, vopt).ok();
        }
        if (!valid) {
          ++invalid;
          continue;
        }
        ++survived;
        stretches.push_back(result.stretch);
        totals.reconf_retries += result.recovery.reconf_retries;
        totals.task_restarts += result.recovery.task_restarts;
        totals.migrations += result.recovery.migrations;
        totals.rescheduled_tasks += result.recovery.rescheduled_tasks;
        totals.abandoned_regions += result.recovery.abandoned_regions;
      } catch (const InstanceError&) {
        ++lost;  // recovery deadlock: the trial is lost, as on the server
      }
    }
    ScopedSpan span(tracer_, "service.simulate_body");
    JsonObject recovery;
    recovery["reconf_retries"] = totals.reconf_retries;
    recovery["task_restarts"] = totals.task_restarts;
    recovery["migrations"] = totals.migrations;
    recovery["rescheduled_tasks"] = totals.rescheduled_tasks;
    recovery["abandoned_regions"] = totals.abandoned_regions;
    JsonObject body;
    body["verb"] = "simulate";
    body["algo"] = request.sched.algo;
    body["instance_digest"] = request.instance_digest.ToHex();
    body["makespan"] = schedule.makespan;
    body["trials"] = request.sim.trials;
    body["survived"] = survived;
    body["invalid"] = invalid;
    body["lost"] = lost;
    if (!stretches.empty()) {
      double sum = 0.0;
      for (const double s : stretches) sum += s;
      body["mean_stretch"] = sum / static_cast<double>(stretches.size());
      body["p95_stretch"] = Percentile(stretches, 95.0);
    }
    body["recovery"] = JsonValue(std::move(recovery));
    return service::OkBody(std::move(body));
  }

  Tracer& tracer_;
  Mirror mirror_;
  FloorplanCache fp_cache_;
  FloorplanModel fp_model_;
  service::Journal journal_;
  router::HashRing ring_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::string> cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t primary_[kBackends] = {};

  TcpListener listener_;
  StreamSocket client_;
  service::FrameReader client_reader_;
  StreamSocket server_;
  std::thread echo_;  ///< declared last: joins before the sockets close
};

/// Replays the loop's requests through a Direct, returning its wall time;
/// with `compare` set, every body must equal the fleet's response.
double Replay(Direct& direct, const Pool& pool, const MixStream& stream,
              const LoopResult& loop, bool compare, Outcome& out) {
  std::size_t divergent = 0;
  const double start = NowSeconds();
  for (std::size_t i = 0; i < loop.sent_keys.size(); ++i) {
    const Key& key = stream.At(loop.sent_keys[i]);
    const std::string id = "q" + std::to_string(i);
    const std::string body =
        direct.Handle(id, RequestLine(key, id, pool.json[key.instance]), out);
    if (compare && body != loop.bodies[i] && ++divergent <= kMaxReported) {
      out.Fail(id + ": fleet response differs from the direct path");
    }
  }
  if (divergent > kMaxReported) {
    out.Fail(std::to_string(divergent) + " fleet responses differ from the "
             "direct path");
  }
  return NowSeconds() - start;
}

void Reconcile(const char* what, std::uint64_t program, std::uint64_t bench,
               Outcome& out) {
  if (program != bench) {
    out.Fail(std::string("reconcile: ") + what + ": program counted " +
             std::to_string(program) + ", benchmark counted " +
             std::to_string(bench));
  }
}

void TracedFleet(const Args& args, const std::string& dir, const Pool& pool,
                 Fleet& fleet, Outcome& out) {
  const std::vector<std::string> warmup = WarmupLines(pool);
  (void)fleet.Warm(warmup, pool);
  MixStream stream(args.seed, pool.instances.size());
  LoopResult loop = ClosedLoop(fleet, stream, pool, NowSeconds() + 1e9,
                               kTracedRequests, true, nullptr, out);
  const JsonValue router_stats = fleet.RouterStats();
  fleet.StopRouter();
  std::vector<JsonValue> backend_stats;
  for (std::size_t b = 0; b < kBackends; ++b) {
    backend_stats.push_back(fleet.BackendStats(b));
  }
  fleet.Stop();

  // The same requests through the direct path: spans off, then on.
  Tracer quiet(false);
  double quiet_seconds = 0.0;
  {
    std::filesystem::create_directories(dir + "/quiet");
    Direct direct(quiet, dir + "/quiet", pool.instances.front());
    direct.Warm(warmup, out);
    quiet_seconds = Replay(direct, pool, stream, loop, false, out);
  }
  Tracer tracer(true);
  std::filesystem::create_directories(dir + "/traced");
  Direct direct(tracer, dir + "/traced", pool.instances.front());
  direct.Warm(warmup, out);
  const double traced_seconds = Replay(direct, pool, stream, loop, true, out);
  direct.ReconcileFloorplan();
  for (const std::string& m : direct.MirrorRef().Mismatches()) {
    out.Fail("reconcile: " + m);
  }

  // The benchmark's counts against the program's counters.
  std::uint64_t cache_hits = 0;
  std::uint64_t stats_hits = 0;
  std::uint64_t completed = 0;
  std::uint64_t evictions = 0;
  double queue_p50 = 0.0;
  double queue_p99 = 0.0;
  std::vector<double> forwarded;
  double rerouted = 0.0;
  for (std::size_t b = 0; b < kBackends; ++b) {
    const service::ServiceCounters counters = fleet.BackendAt(b).Counters();
    cache_hits += counters.cache_hits;
    completed += counters.completed_ok;
    const JsonValue& st = backend_stats[b];
    stats_hits += static_cast<std::uint64_t>(
        st.At("counters").GetInt("cache_hits", -1));
    evictions += static_cast<std::uint64_t>(
        st.At("result_cache").GetInt("evictions", 0));
    const JsonValue& tenant = st.At("tenants").At(service::kDefaultTenant);
    queue_p50 = std::max(queue_p50, tenant.GetDouble("queue_wait_p50_ms", 0.0));
    queue_p99 = std::max(queue_p99, tenant.GetDouble("queue_wait_p99_ms", 0.0));

    const std::string name = "be" + std::to_string(b);
    const JsonValue& rb = router_stats.At("backends").At(name);
    const auto fwd = static_cast<std::uint64_t>(rb.GetInt("forwarded", -1));
    Reconcile(("router forwarded to " + name).c_str(), fwd,
              direct.Primary(b) + fleet.Warmups(b), out);
    forwarded.push_back(static_cast<double>(fwd));
    rerouted += static_cast<double>(rb.GetInt("rerouted", 0));
  }
  if (evictions == 0) {
    Reconcile("result-cache hits (ServiceCounters)", cache_hits, direct.Hits(),
              out);
    Reconcile("result-cache hits (stats verb)", stats_hits, direct.Hits(), out);
  }
  Reconcile("completed requests", completed,
            loop.ok + fleet.Warmups(0) + fleet.Warmups(1), out);

  CheckBodies(pool, stream, loop, out);
  SelfTest(pool, stream, loop, out);

  std::map<std::string, double> values;
  direct.MirrorRef().AddMetrics(static_cast<double>(direct.Executed()), values);
  values["service.queue_wait_p50_ms"] = queue_p50;
  values["service.queue_wait_p99_ms"] = queue_p99;
  values["service.result_cache_hit_share"] =
      static_cast<double>(cache_hits) /
      static_cast<double>(loop.sent_keys.size());
  double mean_forwarded = 0.0;
  for (const double f : forwarded) mean_forwarded += f / kBackends;
  values["router.backend_imbalance"] =
      *std::max_element(forwarded.begin(), forwarded.end()) / mean_forwarded;
  values["router.rerouted"] = rerouted;
  values["bench.trace_overhead_share"] = traced_seconds / quiet_seconds - 1.0;
  out.notes["direct_hits"] = static_cast<double>(direct.Hits());
  FinishTrace(tracer, "bench.request", args, std::move(values), out);
}

}  // namespace

void RunFleetMix(const Args& args, Outcome& out) {
  const std::string dir =
      args.work_dir + "/fleet_mix-" + std::to_string(::getpid());
  EndToEnd e2e;
  Pool pool;
  std::unique_ptr<Fleet> fleet;
  const int repeats = args.trace ? 1 : kSetupRepeats;
  for (int k = 0; k < repeats; ++k) {
    if (fleet) fleet->Stop();
    fleet.reset();
    const double start = NowSeconds();
    pool = MakePool(args.seed);
    fleet = std::make_unique<Fleet>(dir + "/setup" + std::to_string(k), pool);
    e2e.RecordSetup(NowSeconds() - start);
  }

  if (args.trace) {
    TracedFleet(args, dir, pool, *fleet, out);
  } else {
    const double warm_start = NowSeconds();
    const std::vector<std::string> warm = fleet->Warm(WarmupLines(pool), pool);
    out.notes["warm_s"] = NowSeconds() - warm_start;
    for (std::size_t i = 0; i < warm.size(); ++i) {
      const std::string why = CheckScheduleBody(pool.instances[i], warm[i]);
      if (!why.empty()) out.Fail(pool.instances[i].name + " (warm-up): " + why);
      e2e.makespans.push_back(
          static_cast<double>(JsonValue::Parse(warm[i]).GetInt("makespan", 0)));
    }
    MixStream stream(args.seed, pool.instances.size());
    LoopResult loop =
        ClosedLoop(*fleet, stream, pool, NowSeconds() + args.seconds,
                   static_cast<std::size_t>(-1), false, &e2e.probe, out);
    fleet->Stop();
    CheckBodies(pool, stream, loop, out);
    SelfTest(pool, stream, loop, out);

    e2e.timed_ops = loop.ok;
    e2e.timed_seconds = loop.seconds;
    e2e.op_ms = std::move(loop.latency_ms);
    e2e.op_end = std::move(loop.done_at);
    AddEndToEnd(e2e, out);
    out.notes["distinct_keys"] = static_cast<double>(loop.first_body.size());
  }
  fleet.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
