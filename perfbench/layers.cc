// perfbench-layers: the in-process half of the end-to-end benchmark. run.py
// drives it; perfbench/README.md describes the workloads and metrics.
//
//   perfbench-layers trace [--lattice=SPEC | --lattice-file=F] [--cert]
//                          [--batch=DIR] [--replay=LOG] [--trace-out=F] FILE...
//       Calls each layer's public entry point in sequence over FILE..., one
//       request per file, and wraps every call in a span; --batch also runs
//       BatchCertifier over every .cfm in DIR at 1 and 4 jobs, --replay
//       replays a daemon-client request log through CertService. Prints one
//       JSON object: per-layer metrics, per-span self times and the traced
//       wall time. The spans go to --trace-out as Chrome trace-event JSON.
//   perfbench-layers daemon-load --socket=S NAME=PATH...
//       Submits each PATH's text to a running cfmd as document NAME (a
//       `check --json` request) and prints the responses as JSON.
//   perfbench-layers daemon-client --socket=S --docs=LOAD_JSON --seconds=N
//                          --seed=N --cold=PATH... --cold-period-ms=N --log=F
//       Two editor connections take turns sending one-statement edits
//       against the loaded documents while a third sends full-text cold
//       check/lint requests on a fixed schedule. Prints every sample as JSON, writes
//       each editor's final text to its document name and the request
//       sequence to --log for `trace --replay`.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/lint.h"
#include "src/analysis/mhp.h"
#include "src/analysis/passes.h"
#include "src/certcheck/certcheck.h"
#include "src/core/batch.h"
#include "src/core/denning.h"
#include "src/core/pipeline.h"
#include "src/core/report.h"
#include "src/core/subtree_hash.h"
#include "src/lang/lexer.h"
#include "src/lattice/compiled.h"
#include "src/lattice/lattice_spec.h"
#include "src/logic/certificate.h"
#include "src/service/client.h"
#include "src/service/service.h"
#include "src/support/json.h"
#include "src/support/json_reader.h"

namespace cfm {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench-layers: " << message << "\n";
  std::exit(1);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    Die("cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) {
    Die("cannot write '" + path + "'");
  }
}

// Value of `--name=value`, when `arg` is that flag.
std::optional<std::string> FlagValue(const std::string& arg, std::string_view name) {
  std::string prefix = "--" + std::string(name) + "=";
  if (arg.rfind(prefix, 0) == 0) {
    return arg.substr(prefix.size());
  }
  return std::nullopt;
}

// --- spans ------------------------------------------------------------------

// In-memory span recorder (choosing-metrics guide §4): name, start, end,
// parent and request id, written out once the run ends.
class Tracer {
 public:
  static constexpr size_t kNoParent = ~size_t{0};

  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    size_t parent = kNoParent;
    uint64_t request = 0;
  };

  Tracer() : origin_(Clock::now()) {}

  void Begin(std::string name) {
    spans_.push_back(Span{std::move(name), NowUs(), 0,
                          open_.empty() ? kNoParent : open_.back(), request_});
    open_.push_back(spans_.size() - 1);
  }

  void End() {
    spans_[open_.back()].end_us = NowUs();
    open_.pop_back();
  }

  void set_request(uint64_t request) { request_ = request; }
  const std::vector<Span>& spans() const { return spans_; }

  // Total duration of every span called `name`, in seconds.
  double Seconds(const std::string& name) const {
    double total = 0;
    for (const Span& span : spans_) {
      if (span.name == name) {
        total += span.end_us - span.start_us;
      }
    }
    return total / 1e6;
  }

  // Self time per span name, in seconds: each span's duration minus the part
  // its child spans cover.
  std::map<std::string, double> SelfSeconds() const {
    std::vector<double> child_us(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent != kNoParent) {
        child_us[span.parent] += span.end_us - span.start_us;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] += (spans_[i].end_us - spans_[i].start_us - child_us[i]) / 1e6;
    }
    return self;
  }

  std::string ChromeJson() const {
    JsonWriter json;
    json.BeginObject();
    json.Key("displayTimeUnit").String("ms");
    json.Key("traceEvents").BeginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      json.BeginObject();
      json.Key("name").String(span.name);
      json.Key("cat").String("perfbench");
      json.Key("ph").String("X");
      json.Key("ts").UInt(static_cast<uint64_t>(span.start_us));
      json.Key("dur").UInt(static_cast<uint64_t>(span.end_us - span.start_us));
      json.Key("pid").UInt(1);
      json.Key("tid").UInt(1);
      json.Key("args").BeginObject();
      json.Key("id").UInt(i);
      if (span.parent == kNoParent) {
        json.Key("parent").Null();
      } else {
        json.Key("parent").UInt(span.parent);
      }
      json.Key("request_id").UInt(span.request);
      json.Key("end_us").UInt(static_cast<uint64_t>(span.end_us));
      json.EndObject();
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    return json.str();
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint64_t request_ = 0;
};

// Opens a span for its scope; a null tracer records nothing, which is how
// the untraced reference run shares the traced run's code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(std::move(name));
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

// --- the traced run ---------------------------------------------------------

struct TraceOptions {
  std::string lattice_spec = "two";
  std::string lattice_file;
  bool cert = false;
  std::string batch_dir;
  std::string replay;
  std::string trace_out;
  std::vector<std::string> files;
};

std::unique_ptr<Lattice> ResolveLattice(const TraceOptions& options) {
  if (options.lattice_file.empty()) {
    std::unique_ptr<Lattice> lattice = MakeLatticeFromSpec(options.lattice_spec);
    if (lattice == nullptr) {
      Die("bad lattice spec '" + options.lattice_spec + "'");
    }
    return lattice;
  }
  auto parsed = ParseLatticeSpec(ReadFile(options.lattice_file));
  if (!parsed) {
    Die(parsed.error());
  }
  return std::move(parsed.value());
}

// Counts and sizes the traced run accumulates alongside its spans.
struct Counters {
  uint64_t tokens = 0;
  uint64_t stmts = 0;
  uint64_t instructions = 0;
  uint64_t findings = 0;
  uint64_t proof_nodes = 0;
  uint64_t cert_bytes = 0;
  uint64_t cert_source_bytes = 0;
};

ReportOptions JsonReport(const std::string& file) {
  ReportOptions report;
  report.file = file;
  report.json = true;
  return report;
}

// One session's stage artifacts: the lattice must outlive the pipeline.
struct Session {
  std::string text;
  std::unique_ptr<Lattice> lattice;
  std::unique_ptr<CfmPipeline> pipeline;
};

// What `cfmc check --json` does, one span per layer call: read → resolve
// the lattice → parse → bind → certify → render.
void CheckChain(Tracer* tracer, const TraceOptions& options, const std::string& path,
                Session& session) {
  ScopedSpan group(tracer, "check");
  {
    ScopedSpan span(tracer, "support.read");
    session.text = ReadFile(path);
  }
  {
    ScopedSpan span(tracer, "lattice.resolve");
    session.lattice = ResolveLattice(options);
  }
  PipelineOptions pipeline_options;
  pipeline_options.lattice = session.lattice.get();
  session.pipeline = std::make_unique<CfmPipeline>(std::move(pipeline_options));
  CfmPipeline& pipeline = *session.pipeline;
  {
    ScopedSpan span(tracer, "lang.parse");
    if (!pipeline.LoadSource(path, session.text)) {
      Die("parse failed for '" + path + "':\n" + pipeline.error());
    }
  }
  {
    ScopedSpan span(tracer, "core.bind");
    if (pipeline.binding() == nullptr) {
      Die("binding failed for '" + path + "': " + pipeline.error());
    }
  }
  {
    ScopedSpan span(tracer, "core.certify");
    pipeline.certification();
  }
  {
    ScopedSpan span(tracer, "core.render");
    RenderedReport report = RenderCheckReport(pipeline, JsonReport(path));
    if (report.out.empty()) {
      Die("empty check report for '" + path + "'");
    }
  }
}

// One check chain, with spans into `tracer` or none; tearing the session
// down is outside the timed part.
double CheckSeconds(Tracer* tracer, const TraceOptions& options, const std::string& path) {
  Session session;
  Clock::time_point start = Clock::now();
  CheckChain(tracer, options, path, session);
  return SecondsSince(start);
}

// trace.overhead_frac: the first request's check chain with spans on against
// the same chain with spans off, best of three alternating runs each, so a
// slow phase of the host does not land on one side only.
double TraceOverhead(const TraceOptions& options, const std::string& path) {
  double traced = 1e300;
  double untraced = 1e300;
  for (int round = 0; round < 3; ++round) {
    untraced = std::min(untraced, CheckSeconds(nullptr, options, path));
    Tracer scratch;
    traced = std::min(traced, CheckSeconds(&scratch, options, path));
  }
  return traced / untraced - 1;
}

using PassFn = void (*)(LintContext&);
constexpr std::pair<LintPass, PassFn> kDirectPasses[] = {
    {LintPass::kUseBeforeInit, RunUseBeforeInitPass},
    {LintPass::kDeadAssign, RunDeadAssignPass},
    {LintPass::kUnreachable, RunUnreachablePass},
    {LintPass::kSemPairing, RunSemPairingPass},
    {LintPass::kDeadlockOrder, RunDeadlockOrderPass},
    {LintPass::kLabelCreep, RunLabelCreepPass},
    {LintPass::kDataRace, RunDataRacePass},
    {LintPass::kAtomicity, RunAtomicityPass},
};

std::string PassSpan(LintPass pass) { return "analysis.pass." + std::string(ToString(pass)); }

// What `cfmc lint --json` does, pass by pass. The suppression pass has no
// public entry point of its own, so it runs through RunLint twice: with the
// source buffer (which scans lint:allow comments) and without it; the
// difference is its cost.
void LintChain(Tracer* tracer, const std::string& path, CfmPipeline& pipeline,
               Counters& counters) {
  ScopedSpan group(tracer, "lint");
  const Program& program = *pipeline.program();
  const CompiledProgram* code = nullptr;
  {
    ScopedSpan span(tracer, "runtime.bytecode");
    code = pipeline.bytecode();
  }
  counters.instructions += code->code.size();
  const StmtFootprints* footprints = nullptr;
  {
    ScopedSpan span(tracer, "runtime.footprints");
    footprints = pipeline.footprints();
  }
  {
    ScopedSpan span(tracer, "analysis.mhp");
    MhpEngine mhp(program, *footprints);
  }
  LintResult result;
  LintOptions lint_options;
  LintContext ctx{program,     pipeline.binding(), pipeline.certification(),
                  *footprints, lint_options,       result.findings};
  for (const auto& [pass, run] : kDirectPasses) {
    ScopedSpan span(tracer, PassSpan(pass));
    run(ctx);
  }
  LintOptions suppression_only;
  suppression_only.only = {LintPass::kSuppression};
  {
    ScopedSpan span(tracer, PassSpan(LintPass::kSuppression));
    LintResult scanned = RunLint(program, pipeline.binding(), pipeline.certification(),
                                 pipeline.source(), suppression_only);
    result.findings.insert(result.findings.end(), scanned.findings.begin(),
                           scanned.findings.end());
  }
  {
    ScopedSpan span(tracer, "analysis.suppression_baseline");
    RunLint(program, pipeline.binding(), pipeline.certification(), nullptr, suppression_only);
  }
  counters.findings += result.findings.size();
  {
    ScopedSpan span(tracer, "core.render");
    if (RenderLintJson(result, path).empty()) {
      Die("empty lint report for '" + path + "'");
    }
  }
}

void ProveChain(Tracer* tracer, const TraceOptions& options, const std::string& path,
                Session& session, Counters& counters) {
  ScopedSpan group(tracer, "prove");
  CfmPipeline& pipeline = *session.pipeline;
  const Proof* proof = nullptr;
  {
    ScopedSpan span(tracer, "logic.prove");
    proof = pipeline.proof();
  }
  if (proof == nullptr) {
    Die("no Theorem 1 proof for '" + path + "': " + pipeline.error());
  }
  counters.proof_nodes += proof->Size();
  {
    ScopedSpan span(tracer, "logic.proof_check");
    if (auto error = pipeline.checker()->Check(*proof)) {
      Die("proof check failed for '" + path + "': " + error->reason);
    }
  }
  if (!options.cert) {
    return;
  }
  std::string cert;
  {
    ScopedSpan span(tracer, "logic.emit");
    CertificateOptions cert_options;
    cert_options.program_name = path;
    cert_options.source = session.text;
    auto written = WriteCertificate(*proof, *pipeline.program(), *pipeline.binding(), cert_options);
    if (!written) {
      Die("certificate emission failed for '" + path + "': " + written.error());
    }
    cert = std::move(written.value());
  }
  {
    ScopedSpan span(tracer, "certcheck.verify");
    certcheck::VerifyOutcome outcome = certcheck::VerifyCertificate(cert);
    if (!outcome.ok) {
      Die("certificate rejected for '" + path + "': " + outcome.error);
    }
  }
  counters.cert_bytes += cert.size();
  counters.cert_source_bytes += session.text.size();
}

// One request: the check chain, then every other layer over the same
// session, so each stage reuses the artifacts the previous one cached.
void TraceRequest(Tracer& tracer, const TraceOptions& options, const std::string& path,
                  Counters& counters) {
  ScopedSpan request(&tracer, "request");
  Session session;
  CheckChain(&tracer, options, path, session);
  CfmPipeline& pipeline = *session.pipeline;
  counters.stmts += pipeline.program()->stmt_count();
  {
    ScopedSpan span(&tracer, "lang.lex");
    SourceManager source(path, session.text);
    DiagnosticEngine diags;
    Lexer lexer(source, diags);
    while (!lexer.Next().is(TokenKind::kEof)) {
      ++counters.tokens;
    }
  }
  {
    ScopedSpan span(&tracer, "lattice.compile");
    CompiledLattice::Compile(*session.lattice);
  }
  {
    ScopedSpan span(&tracer, "core.denning");
    CertifyDenning(*pipeline.program(), *pipeline.binding(), DenningMode::kStrict);
  }
  {
    ScopedSpan span(&tracer, "core.subtree_hash");
    std::vector<std::pair<const Stmt*, uint64_t>> hashes;
    SubtreeHashes(pipeline.program()->root(), *pipeline.binding(), hashes);
  }
  LintChain(&tracer, path, pipeline, counters);
  ProveChain(&tracer, options, path, session, counters);
}

// Mean cost of one Join or Leq over seeded random element pairs.
double LatticeOpNs(const Lattice& lattice, bool join, uint64_t& sink) {
  constexpr uint32_t kPairs = 4096;
  constexpr uint32_t kOps = 1u << 19;
  std::mt19937_64 rng(0x1a77ce);
  std::vector<ClassId> a(kPairs);
  std::vector<ClassId> b(kPairs);
  for (uint32_t i = 0; i < kPairs; ++i) {
    a[i] = rng() % lattice.size();
    b[i] = rng() % lattice.size();
  }
  Clock::time_point start = Clock::now();
  uint64_t acc = 0;
  for (uint32_t i = 0; i < kOps; ++i) {
    acc += join ? lattice.Join(a[i % kPairs], b[i % kPairs])
                : static_cast<uint64_t>(lattice.Leq(a[i % kPairs], b[i % kPairs]));
  }
  double ns = SecondsSince(start) * 1e9 / kOps;
  sink += acc;
  return ns;
}

// --- daemon requests (shared by the client and the in-process replay) -------

std::string FullTextRequest(const std::string& method, const std::string& file,
                            const std::string& text) {
  JsonWriter json;
  json.BeginObject();
  json.Key("method").String(method);
  json.Key("file").String(file);
  json.Key("text").String(text);
  json.Key("lattice").String("two");
  json.Key("json").Bool(true);
  json.EndObject();
  return json.str();
}

std::string EditRequest(const std::string& file, const std::string& base, uint32_t offset,
                        uint32_t remove, const std::string& insert) {
  JsonWriter json;
  json.BeginObject();
  json.Key("method").String("check");
  json.Key("file").String(file);
  json.Key("base").String(base);
  json.Key("edits").BeginArray();
  json.BeginObject();
  json.Key("offset").UInt(offset);
  json.Key("remove").UInt(remove);
  json.Key("insert").String(insert);
  json.EndObject();
  json.EndArray();
  json.Key("lattice").String("two");
  json.Key("json").Bool(true);
  json.EndObject();
  return json.str();
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t tab = line.find('\t'); tab != std::string::npos; tab = line.find('\t', start)) {
    parts.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
  parts.push_back(line.substr(start));
  return parts;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

// Replays a daemon_mix request log through CertService::Handle: the busy
// time of every request without the socket, the event loop or other
// clients' requests in front of it.
void ReplayService(Tracer& tracer, const std::string& log_path,
                   std::map<std::string, double>& metrics) {
  ScopedSpan group(&tracer, "service.replay");
  CertService service;
  bool shutdown = false;
  std::map<std::string, std::string> base_of;
  std::vector<double> edit_ms;
  std::vector<double> cold_ms;
  std::istringstream log(ReadFile(log_path));
  std::string line;
  uint64_t request = 1000;
  while (std::getline(log, line)) {
    std::vector<std::string> parts = SplitTabs(line);
    std::string payload;
    std::string span;
    std::vector<double>* sink = nullptr;
    if (parts[0] == "L" && parts.size() == 3) {
      payload = FullTextRequest("check", parts[1], ReadFile(parts[2]));
      span = "service.handle.load";
    } else if (parts[0] == "E" && parts.size() == 5) {
      payload = EditRequest(parts[1], base_of[parts[1]],
                            static_cast<uint32_t>(std::stoul(parts[2])),
                            static_cast<uint32_t>(std::stoul(parts[3])), parts[4]);
      span = "service.handle.edit";
      sink = &edit_ms;
    } else if (parts[0] == "C" && parts.size() == 3) {
      payload = FullTextRequest(parts[1], parts[2], ReadFile(parts[2]));
      span = "service.handle.cold";
      sink = &cold_ms;
    } else {
      Die("malformed replay line: " + line);
    }
    tracer.set_request(++request);
    Clock::time_point start = Clock::now();
    std::string response;
    {
      ScopedSpan handle(&tracer, span);
      response = service.Handle(payload, &shutdown);
    }
    if (sink != nullptr) {
      sink->push_back(SecondsSince(start) * 1e3);
    }
    if (parts[0] != "C") {
      std::optional<RemoteResult> result = DecodeResult(response);
      if (!result || !result->error_code.empty() || result->address.empty()) {
        Die("replay lost the warm path at: " + line);
      }
      base_of[parts[1]] = result->address;
    }
  }
  tracer.set_request(0);
  metrics["service.busy_edit_ms"] = Median(edit_ms);
  metrics["service.busy_cold_ms"] = Median(cold_ms);
  metrics["service.replayed_edits"] = static_cast<double>(edit_ms.size());
}

void BatchChain(Tracer& tracer, const TraceOptions& options,
                std::map<std::string, double>& metrics) {
  ScopedSpan group(&tracer, "batch");
  std::vector<BatchJob> jobs;
  {
    ScopedSpan span(&tracer, "batch.load");
    for (const auto& entry : std::filesystem::directory_iterator(options.batch_dir)) {
      if (entry.path().extension() == ".cfm") {
        jobs.push_back(BatchJob{entry.path().string(), ReadFile(entry.path().string())});
      }
    }
    std::sort(jobs.begin(), jobs.end(),
              [](const BatchJob& a, const BatchJob& b) { return a.name < b.name; });
  }
  std::unique_ptr<Lattice> lattice = ResolveLattice(options);
  std::unique_ptr<CompiledLattice> compiled = CompiledLattice::Compile(*lattice);
  double seconds[2] = {0, 0};
  BatchSummary summary;
  const uint32_t kJobs[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    BatchOptions batch_options;
    batch_options.jobs = kJobs[i];
    BatchCertifier certifier(*compiled, batch_options);
    Clock::time_point start = Clock::now();
    {
      ScopedSpan span(&tracer, "batch.jobs" + std::to_string(kJobs[i]));
      summary = certifier.Run(jobs);
    }
    seconds[i] = SecondsSince(start);
    if (summary.failed != 0 || summary.results.size() != jobs.size()) {
      Die("batch run failed");
    }
  }
  metrics["batch.programs"] = static_cast<double>(summary.results.size());
  metrics["batch.rejected"] = static_cast<double>(summary.rejected);
  metrics["batch.speedup_4v1"] = seconds[0] / seconds[1];
  metrics["batch.worker_busy_frac"] = seconds[0] / (4 * seconds[1]);
}

int RunTrace(const TraceOptions& options) {
  if (options.files.empty()) {
    Die("trace needs at least one program file");
  }
  std::map<std::string, double> metrics;
  Counters counters;
  Tracer tracer;
  uint64_t sink = 0;
  {
    ScopedSpan root(&tracer, "perfbench.trace");
    for (size_t i = 0; i < options.files.size(); ++i) {
      tracer.set_request(i + 1);
      TraceRequest(tracer, options, options.files[i], counters);
    }
    tracer.set_request(0);
    {
      ScopedSpan span(&tracer, "lattice.ops_probe");
      std::unique_ptr<Lattice> lattice = ResolveLattice(options);
      std::unique_ptr<CompiledLattice> compiled;
      const Lattice* probed = lattice.get();
      if (!options.batch_dir.empty()) {
        compiled = CompiledLattice::Compile(*lattice);
        probed = compiled.get();
      }
      metrics["lattice.join_ns"] = LatticeOpNs(*probed, true, sink);
      metrics["lattice.leq_ns"] = LatticeOpNs(*probed, false, sink);
    }
    if (!options.batch_dir.empty()) {
      BatchChain(tracer, options, metrics);
    }
    if (!options.replay.empty()) {
      ReplayService(tracer, options.replay, metrics);
    }
  }
  const double wall_s = tracer.Seconds("perfbench.trace");
  const std::map<std::string, double> self = tracer.SelfSeconds();
  // Grouping spans carry no layer work of their own; everything else is a
  // layer call, and their self times should account for the wall time.
  const char* kGroups[] = {"perfbench.trace", "request", "check", "lint",
                           "prove",           "batch",   "service.replay"};
  double attributed_s = 0;
  for (const auto& [name, seconds] : self) {
    if (std::find(std::begin(kGroups), std::end(kGroups), name) == std::end(kGroups)) {
      attributed_s += seconds;
    }
  }

  for (const char* layer :
       {"support.read", "lang.lex", "lang.parse", "lattice.resolve", "lattice.compile",
        "core.bind", "core.certify", "core.denning", "core.render", "core.subtree_hash",
        "runtime.bytecode", "runtime.footprints", "analysis.mhp", "logic.prove",
        "logic.proof_check"}) {
    metrics[std::string(layer) + "_s"] = tracer.Seconds(layer);
  }
  for (const auto& [pass, run] : kDirectPasses) {
    metrics[PassSpan(pass) + "_s"] = tracer.Seconds(PassSpan(pass));
  }
  metrics[PassSpan(LintPass::kSuppression) + "_s"] =
      tracer.Seconds(PassSpan(LintPass::kSuppression)) -
      tracer.Seconds("analysis.suppression_baseline");
  metrics["lang.tokens"] = static_cast<double>(counters.tokens);
  metrics["lang.stmts"] = static_cast<double>(counters.stmts);
  metrics["lang.lex_ns_per_token"] =
      counters.tokens == 0 ? 0 : tracer.Seconds("lang.lex") * 1e9 / counters.tokens;
  metrics["runtime.instructions"] = static_cast<double>(counters.instructions);
  metrics["analysis.findings"] = static_cast<double>(counters.findings);
  metrics["logic.proof_nodes"] = static_cast<double>(counters.proof_nodes);
  if (options.cert) {
    metrics["logic.emit_s"] = tracer.Seconds("logic.emit");
    metrics["logic.cert_bytes_per_src_byte"] =
        static_cast<double>(counters.cert_bytes) / counters.cert_source_bytes;
    metrics["certcheck.verify_s"] = tracer.Seconds("certcheck.verify");
    metrics["certcheck.mb_per_s"] =
        counters.cert_bytes / 1e6 / tracer.Seconds("certcheck.verify");
  }
  metrics["trace.overhead_frac"] = TraceOverhead(options, options.files.front());
  metrics["trace.attributed_frac"] = attributed_s / wall_s;

  if (!options.trace_out.empty()) {
    WriteFile(options.trace_out, tracer.ChromeJson());
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("wall_s").Raw(std::to_string(wall_s));
  json.Key("spans").UInt(tracer.spans().size());
  json.Key("sink").UInt(sink);
  json.Key("metrics").BeginObject();
  for (const auto& [name, value] : metrics) {
    std::ostringstream number;
    number.precision(17);
    number << value;
    json.Key(name).Raw(number.str());
  }
  json.EndObject();
  json.Key("self_s").BeginObject();
  for (const auto& [name, seconds] : self) {
    json.Key(name).Raw(std::to_string(seconds));
  }
  json.EndObject();
  json.EndObject();
  std::cout << json.str() << "\n";
  return 0;
}

// --- daemon client ------------------------------------------------------------

struct LoadedDoc {
  std::string name;
  std::string init_path;
  std::string address;
  std::string output;
};

std::string RawRoundtrip(CfmdClient& client, const std::string& payload) {
  std::optional<std::string> response = client.Roundtrip(payload);
  if (!response) {
    Die("daemon connection lost");
  }
  return *response;
}

int RunDaemonLoad(const std::string& socket, const std::vector<std::string>& specs) {
  CfmdClient client(socket);
  if (!client.ok()) {
    Die(client.error());
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("docs").BeginArray();
  for (const std::string& spec : specs) {
    size_t eq = spec.find('=');
    if (eq == std::string::npos) {
      Die("daemon-load takes NAME=PATH, got '" + spec + "'");
    }
    std::string name = spec.substr(0, eq);
    std::string path = spec.substr(eq + 1);
    std::optional<RemoteResult> result =
        DecodeResult(RawRoundtrip(client, FullTextRequest("check", name, ReadFile(path))));
    if (!result || !result->error_code.empty() || result->exit_code != 0 ||
        result->address.empty()) {
      Die("document '" + name + "' did not load clean and resident");
    }
    json.BeginObject();
    json.Key("name").String(name);
    json.Key("init_path").String(path);
    json.Key("address").String(result->address);
    json.Key("output").String(result->output);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::cout << json.str() << "\n";
  return 0;
}

// Byte spans of the integer literals in `:= <digits>;` assignments: each is
// a one-statement edit site whose rewrite keeps the program's length, its
// parse and its (all-low) certification.
std::vector<std::pair<uint32_t, uint32_t>> EditSites(const std::string& text) {
  std::vector<std::pair<uint32_t, uint32_t>> sites;
  for (size_t at = text.find(":= "); at != std::string::npos; at = text.find(":= ", at + 3)) {
    size_t begin = at + 3;
    size_t end = begin;
    while (end < text.size() && text[end] >= '0' && text[end] <= '9') {
      ++end;
    }
    if (end > begin && end < text.size() && text[end] == ';') {
      sites.emplace_back(static_cast<uint32_t>(begin), static_cast<uint32_t>(end - begin));
    }
  }
  return sites;
}

struct LogLine {
  double at_s;
  std::string line;
};

struct EditorResult {
  std::vector<double> latency_ms;
  uint64_t errors = 0;
  uint64_t wrong = 0;
  std::string final_output;
  std::vector<LogLine> log;
};

// One editor connection and the resident document it edits.
class Editor {
 public:
  Editor(const std::string& socket, const LoadedDoc& doc, uint64_t seed, EditorResult& out)
      : doc_(doc),
        client_(socket),
        text_(ReadFile(doc.init_path)),
        sites_(EditSites(text_)),
        rng_(seed),
        base_(doc.address),
        out_(out) {
    if (sites_.empty()) {
      Die("no edit sites in '" + doc.init_path + "'");
    }
    out_.final_output = doc.output;
    if (!client_.ok()) {
      Fail();
    }
  }

  bool done() const { return done_; }

  // Sends one one-statement edit and waits for its response.
  void Step(Clock::time_point start) {
    auto [offset, length] = sites_[rng_() % sites_.size()];
    std::string insert(length, '0');
    do {
      for (uint32_t i = 0; i < length; ++i) {
        insert[i] = static_cast<char>('0' + rng_() % 10);
      }
      if (length > 1 && insert[0] == '0') {
        insert[0] = '1';
      }
    } while (text_.compare(offset, length, insert) == 0);
    std::string payload = EditRequest(doc_.name, base_, offset, length, insert);
    Clock::time_point sent = Clock::now();
    std::optional<std::string> response = client_.Roundtrip(payload);
    double ms = std::chrono::duration<double, std::milli>(Clock::now() - sent).count();
    if (!response) {
      Fail();
      return;
    }
    std::optional<RemoteResult> result = DecodeResult(*response);
    if (!result || !result->error_code.empty() || result->address.empty()) {
      Fail();
      return;
    }
    text_.replace(offset, length, insert);
    out_.log.push_back(LogLine{std::chrono::duration<double>(sent - start).count(),
                               "E\t" + doc_.name + "\t" + std::to_string(offset) + "\t" +
                                   std::to_string(length) + "\t" + insert});
    out_.latency_ms.push_back(ms);
    // A clean document's JSON report depends only on {file, lattice,
    // mechanism}, so every edit must reproduce the load's bytes.
    if (result->exit_code != 0 || result->output != doc_.output) {
      ++out_.wrong;
    }
    base_ = result->address;
  }

  void WriteText() const { WriteFile(doc_.name, text_); }

 private:
  void Fail() {
    ++out_.errors;
    done_ = true;
  }

  const LoadedDoc& doc_;
  CfmdClient client_;
  std::string text_;
  std::vector<std::pair<uint32_t, uint32_t>> sites_;
  std::mt19937_64 rng_;
  std::string base_;
  EditorResult& out_;
  bool done_ = false;
};

// The editors take turns on one thread, so one edit is in flight at a time.
// Two free-running closed-loop editors would queue behind each other on the
// single-threaded daemon, and whether an edit waits for the other editor's
// flips with sub-millisecond timing: its latency jumped between one and two
// service times from run to run.
void RunEditors(const std::string& socket, const std::vector<LoadedDoc>& docs, uint64_t seed,
                Clock::time_point start, Clock::time_point deadline,
                std::vector<EditorResult>& out) {
  std::vector<std::unique_ptr<Editor>> editors;
  for (size_t i = 0; i < docs.size(); ++i) {
    editors.push_back(std::make_unique<Editor>(socket, docs[i], seed * 31 + i, out[i]));
  }
  bool any = true;
  while (any && Clock::now() < deadline) {
    any = false;
    for (std::unique_ptr<Editor>& editor : editors) {
      if (!editor->done() && Clock::now() < deadline) {
        editor->Step(start);
        any = true;
      }
    }
  }
  for (const std::unique_ptr<Editor>& editor : editors) {
    editor->WriteText();
  }
}

struct ColdSample {
  std::string method;
  std::string file;
  double latency_ms = 0;
  double lag_ms = 0;
  bool ok = false;
  int exit_code = 0;
  std::string output;
  std::string errout;
};

int RunDaemonClient(const std::string& socket, const std::string& docs_path, double seconds,
                    uint64_t seed, const std::vector<std::string>& cold_files,
                    double cold_period_ms, const std::string& log_path) {
  std::optional<JsonValue> docs_json = ParseJson(ReadFile(docs_path));
  if (!docs_json) {
    Die("malformed --docs file");
  }
  std::vector<LoadedDoc> docs;
  for (const JsonValue& doc : docs_json->at("docs").array) {
    docs.push_back(LoadedDoc{doc.at("name").StringOr(""), doc.at("init_path").StringOr(""),
                             doc.at("address").StringOr(""), doc.at("output").StringOr("")});
  }
  CfmdClient cold_client(socket);
  if (!cold_client.ok()) {
    Die(cold_client.error());
  }
  const std::string stats_request = "{\"method\": \"stats\"}";
  std::string stats_before = RawRoundtrip(cold_client, stats_request);

  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<EditorResult> editors(docs.size());
  std::thread editor_thread(RunEditors, std::cref(socket), std::cref(docs), seed, start, deadline,
                            std::ref(editors));

  // The cold connection runs open loop: request k is due at k × period and
  // is timed from when it was due, so a stall also charges the requests
  // queued behind it.
  std::vector<ColdSample> cold;
  std::vector<LogLine> cold_log;
  for (size_t k = 0; k < cold_files.size(); ++k) {
    Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(cold_period_ms * k));
    if (due >= deadline) {
      break;
    }
    std::this_thread::sleep_until(due);
    ColdSample sample;
    sample.method = k % 2 == 0 ? "check" : "lint";
    sample.file = cold_files[k];
    std::string payload = FullTextRequest(sample.method, sample.file, ReadFile(sample.file));
    Clock::time_point sent = Clock::now();
    sample.lag_ms = std::chrono::duration<double, std::milli>(sent - due).count();
    std::optional<std::string> response = cold_client.Roundtrip(payload);
    sample.latency_ms = std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    std::optional<RemoteResult> result;
    if (response) {
      result = DecodeResult(*response);
    }
    sample.ok = result.has_value() && result->error_code.empty();
    if (sample.ok) {
      sample.exit_code = result->exit_code;
      sample.output = result->output;
      sample.errout = result->errout;
    }
    cold_log.push_back(LogLine{std::chrono::duration<double>(sent - start).count(),
                               "C\t" + sample.method + "\t" + sample.file});
    cold.push_back(std::move(sample));
    if (!response) {
      break;
    }
  }
  editor_thread.join();
  const double measured_s = SecondsSince(start);
  std::string stats_after = RawRoundtrip(cold_client, stats_request);

  std::vector<LogLine> log;
  for (const LoadedDoc& doc : docs) {
    log.push_back(LogLine{-1, "L\t" + doc.name + "\t" + doc.init_path});
  }
  for (const EditorResult& editor : editors) {
    log.insert(log.end(), editor.log.begin(), editor.log.end());
  }
  log.insert(log.end(), cold_log.begin(), cold_log.end());
  std::stable_sort(log.begin(), log.end(),
                   [](const LogLine& a, const LogLine& b) { return a.at_s < b.at_s; });
  std::string log_text;
  for (const LogLine& line : log) {
    log_text += line.line + "\n";
  }
  WriteFile(log_path, log_text);

  JsonWriter json;
  json.BeginObject();
  json.Key("measured_s").Raw(std::to_string(measured_s));
  json.Key("editors").BeginArray();
  for (size_t i = 0; i < editors.size(); ++i) {
    json.BeginObject();
    json.Key("file").String(docs[i].name);
    json.Key("errors").UInt(editors[i].errors);
    json.Key("wrong").UInt(editors[i].wrong);
    json.Key("output").String(editors[i].final_output);
    json.Key("latency_ms").BeginArray();
    for (double ms : editors[i].latency_ms) {
      json.Raw(std::to_string(ms));
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Key("cold").BeginArray();
  for (const ColdSample& sample : cold) {
    json.BeginObject();
    json.Key("method").String(sample.method);
    json.Key("file").String(sample.file);
    json.Key("ok").Bool(sample.ok);
    json.Key("exit").Int(sample.exit_code);
    json.Key("latency_ms").Raw(std::to_string(sample.latency_ms));
    json.Key("lag_ms").Raw(std::to_string(sample.lag_ms));
    json.Key("output").String(sample.output);
    json.Key("errout").String(sample.errout);
    json.EndObject();
  }
  json.EndArray();
  json.Key("stats_before").Raw(stats_before);
  json.Key("stats_after").Raw(stats_after);
  json.EndObject();
  std::cout << json.str() << "\n";
  return 0;
}

int Usage() {
  std::cerr << "usage: perfbench-layers trace [--lattice=SPEC|--lattice-file=F] [--cert] "
               "[--batch=DIR] [--replay=LOG] [--trace-out=F] FILE...\n"
               "       perfbench-layers daemon-load --socket=S NAME=PATH...\n"
               "       perfbench-layers daemon-client --socket=S --docs=F --seconds=N "
               "--seed=N --cold-period-ms=N --log=F --cold=PATH...\n";
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  TraceOptions trace;
  std::string socket;
  std::string docs;
  std::string log;
  double seconds = 0;
  double cold_period_ms = 500;
  uint64_t seed = 1;
  std::vector<std::string> cold;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (auto v = FlagValue(arg, "lattice")) {
      trace.lattice_spec = *v;
    } else if (auto vf = FlagValue(arg, "lattice-file")) {
      trace.lattice_file = *vf;
    } else if (arg == "--cert") {
      trace.cert = true;
    } else if (auto vb = FlagValue(arg, "batch")) {
      trace.batch_dir = *vb;
    } else if (auto vr = FlagValue(arg, "replay")) {
      trace.replay = *vr;
    } else if (auto vt = FlagValue(arg, "trace-out")) {
      trace.trace_out = *vt;
    } else if (auto vs = FlagValue(arg, "socket")) {
      socket = *vs;
    } else if (auto vd = FlagValue(arg, "docs")) {
      docs = *vd;
    } else if (auto vl = FlagValue(arg, "log")) {
      log = *vl;
    } else if (auto vsec = FlagValue(arg, "seconds")) {
      seconds = std::stod(*vsec);
    } else if (auto vp = FlagValue(arg, "cold-period-ms")) {
      cold_period_ms = std::stod(*vp);
    } else if (auto vseed = FlagValue(arg, "seed")) {
      seed = std::stoull(*vseed);
    } else if (auto vc = FlagValue(arg, "cold")) {
      cold.push_back(*vc);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "perfbench-layers: unknown flag '" << arg << "'\n";
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (command == "trace") {
    trace.files = positional;
    return RunTrace(trace);
  }
  if (command == "daemon-load" && !socket.empty()) {
    return RunDaemonLoad(socket, positional);
  }
  if (command == "daemon-client" && !socket.empty() && !docs.empty() && !log.empty() &&
      seconds > 0) {
    return RunDaemonClient(socket, docs, seconds, seed, cold, cold_period_ms, log);
  }
  return Usage();
}

}  // namespace
}  // namespace cfm

int main(int argc, char** argv) { return cfm::Main(argc, argv); }
