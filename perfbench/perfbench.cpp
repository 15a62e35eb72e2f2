//===- perfbench/perfbench.cpp - End-to-end benchmark runner ---------------===//
///
/// \file
/// Drives every program of one workload through the same
/// analyze -> (rewrite) -> load -> run sequence, checks each output, and
/// prints the benchmark's metrics as one JSON object on the last line of
/// stdout. The runner only calls the layers' public entry points and reads
/// the counters those calls already return (StaticAnalyzerStats,
/// CoverageStats, DbiStats, AotRun, RunResult); it adds nothing to src/.
///
/// Workloads (closed loop: one program at a time on one host thread):
///
///   spec-hybrid  28 SPEC-like profiles, each hardened with JASan-hybrid and
///                JCFI-hybrid, run under the DBI engine's default tiers with
///                a rule cache directory created empty for every pass;
///   juliet-cold  the 624 Juliet CWE-122 cases, good and bad variants, each
///                hardened with JASan-hybrid from scratch (no cache);
///   spec-aot     the 28 profiles hardened with JASan, AOT-rewritten
///                (dlopen-only modules all-stubbed) and run on the tiered
///                AOT runner.
///
/// Usage:
///
///   jz-perfbench --workload W --seed N --seconds S --trace 0|1
///   jz-perfbench --workload W --seed N --check counts
///
/// The measured form repeats whole passes over the workload for S seconds
/// (at least MinPasses) and times each program by its fastest pass. The
/// seed only permutes program order. --trace 0 reports the end-to-end
/// metrics; --trace 1 alternates untraced passes with passes under the
/// armed TraceCollector and reports the per-layer metrics. --check counts
/// runs one pass and prints its exact counters, for comparing runs; it also
/// accepts JZ_FAULTS, so a fault campaign can be scored. Measured runs
/// refuse to start while any environment variable that changes the engine
/// is set. The rule cache lives in the working directory.
///
//===----------------------------------------------------------------------===//

#include "core/JanitizerDynamic.h"
#include "core/StaticAnalyzer.h"
#include "jasan/JASan.h"
#include "jasm/Assembler.h"
#include "jcfi/JCFI.h"
#include "rewrite/AotRewriter.h"
#include "rewrite/AotRunner.h"
#include "runtime/Jlibc.h"
#include "support/Trace.h"
#include "workloads/JulietGen.h"
#include "workloads/WorkloadGen.h"

#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

using namespace janitizer;
namespace fs = std::filesystem;

namespace {

/// WorkScale of the SPEC-like workloads (multiplies each profile's
/// OuterIters), recorded in BENCHMARK.json. spec-aot interprets its native
/// legs and so runs about twice as long per unit of work; its smaller scale
/// gives it as many passes per run as spec-hybrid.
constexpr unsigned HybridWorkScale = 16;
constexpr unsigned AotWorkScale = 8;
/// Guest step cap per run; every workload finishes far below it, so
/// hitting it means a hang and fails the program.
constexpr uint64_t MaxGuestSteps = 1ull << 32;
/// Fewest untraced passes a measured run makes, whatever --seconds says.
constexpr unsigned MinPasses = 5;

/// Environment variables that change what the engine does. A measured run
/// refuses to start while any of them is set.
const char *const PinnedEnv[] = {
    "JZ_NO_JIT",        "JZ_NO_LINK",       "JZ_NO_TRACE",
    "JZ_JIT_THRESHOLD", "JZ_JIT_ARENA_MAX", "JZ_FAULTS",
    "JZ_RULED_SOCKET",  "JZ_TRACE",         "JZ_MAX_GUEST_THREADS",
    "JZ_MAX_GUEST_STEPS",
};

/// Spans the traced run rolls up: those already compiled into src/, then
/// the runner's own spans around each layer call.
constexpr const char *SpanNames[] = {
    "static.cfg",        "static.liveness",     "static.canaries",
    "static.loops",      "static.codescan",     "cache.read",
    "cache.write",       "dispatch.buildBlock", "dispatch.buildTrace",
    "dispatch.fallback", "jasan.instrument",    "jasan.interpose",
    "jcfi.edgeCheck",    "aot.run",             "bench.program",
    "bench.analyze",     "bench.rewrite",       "bench.load",
    "bench.run",
};
constexpr size_t NumSpans = std::size(SpanNames);

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

enum class WorkloadKind { SpecHybrid, JulietCold, SpecAot };
enum class ToolKind { Jasan, Jcfi };

const char *toolName(ToolKind T) {
  return T == ToolKind::Jasan ? "jasan" : "jcfi";
}

/// One prepared program plus its native reference.
struct Program {
  std::string Name;
  ModuleStore Store;
  std::string Exe;
  std::vector<std::string> DlopenOnly;
  /// Output and cycles of the unmodified program on Process::runNative.
  std::string Reference;
  uint64_t NativeCycles = 0;
  /// Juliet only: bad variant, its distinct-violation count, and whether
  /// Figure 10 expects JASan to catch all of them.
  bool Juliet = false;
  bool Bad = false;
  unsigned ExpectedViolations = 0;
  bool ExpectDetected = false;
};

struct Job {
  const Program *Prog;
  ToolKind Tool;
};

struct Failure {
  std::string Program;
  std::string Stage;
  std::string Message;
};

/// Host seconds of one program in one pass, per layer call.
struct JobTime {
  double Analyze = 0; ///< StaticAnalyzer::analyzeProgram
  double Rewrite = 0; ///< aotRewriteProgram + aotRewriteModule
  double Load = 0;    ///< Process::loadProgram
  double DbiRun = 0;  ///< DbiEngine::run
  double AotRun = 0;  ///< runUnderJanitizerAot (loads internally)
  double Verdict = 0; ///< start of analysis to verdict
  double setup() const { return Analyze + Rewrite; }
  double run() const { return Load + DbiRun + AotRun; }
};

struct SpanTotal {
  uint64_t Count = 0;
  uint64_t SelfNs = 0;
  uint64_t TotalNs = 0;
};
using JobSpans = std::array<SpanTotal, NumSpans>;

/// Everything one pass over the workload measured.
struct PassResult {
  /// Per job, in job order; Spans only in traced passes.
  std::vector<JobTime> Times;
  std::vector<JobSpans> Spans;
  /// Exact counters; identical for identical inputs.
  std::map<std::string, uint64_t> Counts;
  /// log(guest cycles / native cycles) of every program that ran.
  std::vector<double> LogSlowdowns;
  unsigned Attempted = 0;
  /// Programs failing a fail_frac condition (one entry per program).
  std::vector<Failure> Failures;
  /// Juliet verdicts that differ from Figure 10's JASan column.
  std::vector<Failure> VerdictMismatches;
  uint64_t DroppedEvents = 0;
};

// --- workload preparation (not timed) ---------------------------------------

[[noreturn]] void fatal(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(1);
}

/// Runs \p P natively and records its reference output and cycles.
void nativeBaseline(Program &P) {
  Process Proc(P.Store);
  if (Error E = Proc.loadProgram(P.Exe))
    fatal(P.Name + ": native load: " + E.message());
  RunResult R = Proc.runNative(MaxGuestSteps);
  if (R.St != RunResult::Status::Exited)
    fatal(P.Name + ": native run did not exit: " + R.FaultMsg);
  P.Reference = Proc.output();
  P.NativeCycles = R.Cycles;
}

std::vector<Program> prepareSpec(unsigned WorkScale) {
  std::vector<Program> Progs;
  WorkloadOptions Opts;
  Opts.WorkScale = WorkScale;
  for (const BenchProfile &BP : specProfiles()) {
    ErrorOr<WorkloadBuild> W = buildWorkload(BP, Opts);
    if (!W)
      fatal(BP.Name + ": workload generation: " + W.takeError().message());
    Program P;
    P.Name = BP.Name;
    P.Store = std::move(W->Store);
    P.Exe = W->ExeName;
    P.DlopenOnly = W->DlopenOnly;
    nativeBaseline(P);
    Progs.push_back(std::move(P));
  }
  return Progs;
}

std::vector<Program> prepareJuliet() {
  ErrorOr<Module> Libc = buildJlibc();
  if (!Libc)
    fatal("libjz.so: " + Libc.takeError().message());
  std::vector<Program> Progs;
  for (const JulietCase &C : julietCwe122Suite()) {
    for (bool Bad : {false, true}) {
      ErrorOr<Module> M = assembleModule(Bad ? C.BadSource : C.GoodSource);
      if (!M)
        fatal(C.Name + ": assembly: " + M.takeError().message());
      Program P;
      P.Name = C.Name + (Bad ? "/bad" : "/good");
      P.Store.add(*Libc);
      P.Store.add(M.takeValue());
      P.Exe = "prog";
      P.Juliet = true;
      P.Bad = Bad;
      P.ExpectedViolations = Bad ? C.ExpectedViolations : 0;
      // Figure 10: JASan reports only the canary write of the two
      // HeapToStack violations, so those bad cases are its 96 false
      // negatives; every other bad case is a true positive.
      P.ExpectDetected = Bad && C.Kind != JulietCase::Family::HeapToStack;
      nativeBaseline(P);
      Progs.push_back(std::move(P));
    }
  }
  return Progs;
}

std::vector<Job> makeJobs(WorkloadKind W, const std::vector<Program> &Progs) {
  std::vector<Job> Jobs;
  for (const Program &P : Progs) {
    Jobs.push_back({&P, ToolKind::Jasan});
    if (W == WorkloadKind::SpecHybrid)
      Jobs.push_back({&P, ToolKind::Jcfi});
  }
  return Jobs;
}

// --- trace roll-up ------------------------------------------------------------

/// Folds the collector's events into per-span count / self / total time.
/// Spans on one thread nest (they are RAII scopes), so a span's self time
/// is its duration minus the durations of its direct children.
JobSpans rollUpTrace() {
  std::vector<TraceEvent> Evs = TraceCollector::instance().snapshot();
  std::sort(Evs.begin(), Evs.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              if (A.Tid != B.Tid)
                return A.Tid < B.Tid;
              if (A.StartNs != B.StartNs)
                return A.StartNs < B.StartNs;
              return A.EndNs > B.EndNs;
            });
  JobSpans Out{};
  struct Open {
    const TraceEvent *Ev;
    uint64_t ChildNs;
  };
  std::vector<Open> Stack;
  auto Close = [&] {
    const Open &O = Stack.back();
    for (size_t I = 0; I < NumSpans; ++I) {
      if (std::strcmp(O.Ev->Name, SpanNames[I]) != 0)
        continue;
      uint64_t Dur = O.Ev->EndNs - O.Ev->StartNs;
      Out[I].Count += 1;
      Out[I].TotalNs += Dur;
      Out[I].SelfNs += Dur - std::min(Dur, O.ChildNs);
      break;
    }
    Stack.pop_back();
  };
  uint32_t Tid = ~0u;
  for (const TraceEvent &E : Evs) {
    if (E.Tid != Tid) {
      while (!Stack.empty())
        Close();
      Tid = E.Tid;
    }
    while (!Stack.empty() && Stack.back().Ev->EndNs <= E.StartNs)
      Close();
    if (!Stack.empty())
      Stack.back().ChildNs += E.EndNs - E.StartNs;
    Stack.push_back({&E, 0});
  }
  while (!Stack.empty())
    Close();
  return Out;
}

// --- one program ----------------------------------------------------------------

std::string violationSummary(const std::vector<Violation> &Vs) {
  const Violation &V = Vs.front();
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "%zu violations (first: %s at 0x%" PRIx64 ")", Vs.size(),
                V.What.c_str(), V.PC);
  return Buf;
}

std::string degradationSummary(const DegradationReport &R) {
  std::string S;
  for (const DegradationEvent &E : R.Events)
    S += (S.empty() ? "" : "; ") + E.Module + " degraded at " + E.Stage +
         ": " + E.Cause;
  return S;
}

size_t distinctViolations(const std::vector<Violation> &Vs) {
  std::set<std::pair<uint64_t, std::string>> D;
  for (const Violation &V : Vs)
    D.insert({V.PC, V.What});
  return D.size();
}

/// Hardens and runs one job, adding its times, counters and verdict to a
/// pass.
class Runner {
public:
  Runner(WorkloadKind W, PassResult &Out, const std::string &CacheDir)
      : W(W), Out(Out), CacheDir(CacheDir) {}

  void run(const Job &J, uint64_t Id);

private:
  bool fail(const Job &J, const char *Stage, std::string Msg) {
    Out.Failures.push_back(
        {J.Prog->Name + ":" + toolName(J.Tool), Stage, std::move(Msg)});
    return false;
  }
  void add(const std::string &Name, uint64_t V) { Out.Counts[Name] += V; }

  bool analyze(const Job &J, const std::string &Id, SecurityTool &StaticTool,
               RuleStore &Rules, JobTime &T);
  void runAot(const Job &J, const std::string &Id, const RuleStore &Rules,
              JobTime &T);
  void runHybrid(const Job &J, const std::string &Id, const RuleStore &Rules,
                 const JcfiDatabase &Db, JobTime &T);
  void addDynamic(const CoverageStats &Cov, const DbiStats &D);
  void checkRun(const Job &J, const RunResult &R, const std::string &Output,
                const std::vector<Violation> &Vs,
                const DegradationReport &LoadDegradation);

  WorkloadKind W;
  PassResult &Out;
  std::string CacheDir;
};

bool Runner::analyze(const Job &J, const std::string &Id,
                     SecurityTool &StaticTool, RuleStore &Rules, JobTime &T) {
  const Program &P = *J.Prog;
  StaticAnalyzerOptions Opts;
  Opts.CacheDir = CacheDir;
  StaticAnalyzer SA(Opts);
  Error E;
  {
    JZ_TRACE_SPAN("bench.analyze", {{"id", Id}});
    Clock::time_point T0 = Clock::now();
    E = SA.analyzeProgram(P.Store, P.Exe, StaticTool, Rules, P.DlopenOnly);
    T.Analyze = secondsSince(T0);
  }
  const StaticAnalyzerStats &St = SA.stats();
  add("core.modules_analyzed", St.ModulesAnalyzed);
  add("core.blocks_discovered", St.BlocksDiscovered);
  add("core.instructions_decoded", St.InstructionsDecoded);
  add("core.rules_emitted", St.RulesEmitted);
  add("core.noop_rules", St.NoOpRules);
  add("core.modules_degraded", St.ModulesDegraded);
  add("rules.cache_hits", St.CacheHits);
  add("rules.cache_misses", St.CacheMisses);
  if (E)
    return fail(J, "analyze", E.message());
  if (St.ModulesDegraded || !St.Degradation.empty())
    return fail(J, "analyze", degradationSummary(St.Degradation));
  return true;
}

void Runner::runAot(const Job &J, const std::string &Id, const RuleStore &Rules,
                    JobTime &T) {
  const Program &P = *J.Prog;
  ModuleStore Rewritten;
  AotManifest Manifest;
  bool Ok = true;
  {
    JZ_TRACE_SPAN("bench.rewrite", {{"id", Id}});
    Clock::time_point T0 = Clock::now();
    if (Error E = aotRewriteProgram(P.Store, P.Exe, Rules, "jasan", Rewritten,
                                    Manifest))
      Ok = fail(J, "rewrite", E.message());
    // dlopen-only modules have no rules: rewrite them all-stubbed so the
    // DBI fallback discovers their code at run time.
    for (size_t I = 0; Ok && I < P.DlopenOnly.size(); ++I) {
      const Module *M = P.Store.find(P.DlopenOnly[I]);
      if (!M) {
        Ok = fail(J, "rewrite", P.DlopenOnly[I] + ": not in store");
        break;
      }
      ErrorOr<AotModuleResult> R = aotRewriteModule(*M, nullptr, "jasan");
      if (!R) {
        Ok = fail(J, "rewrite", M->Name + ": " + R.takeError().message());
        break;
      }
      Manifest.Modules[M->Name] = std::move(R->Manifest);
      Rewritten.add(std::move(R->NewMod));
    }
    T.Rewrite = secondsSince(T0);
  }
  if (!Ok)
    return;
  JASanTool Tool;
  AotRunOptions Opts;
  Opts.MaxSteps = MaxGuestSteps;
  AotRun R;
  {
    JZ_TRACE_SPAN("bench.run", {{"id", Id}});
    Clock::time_point T0 = Clock::now();
    R = runUnderJanitizerAot(Rewritten, P.Exe, Tool, Rules, Manifest, Opts);
    T.AotRun = secondsSince(T0);
  }
  add("rewrite.native_legs", R.NativeLegs);
  add("rewrite.dbi_legs", R.DbiLegs);
  add("rewrite.tier_enters", R.TierEnters);
  add("rewrite.intercepts", R.Intercepts);
  add("rewrite.aot_checks", R.AotChecks);
  add("rewrite.vacated_enters", R.VacatedEnters);
  addDynamic(R.Coverage, R.Dbi);
  checkRun(J, R.Result, R.Output, R.Violations, R.Degradation);
}

void Runner::runHybrid(const Job &J, const std::string &Id,
                       const RuleStore &Rules, const JcfiDatabase &Db,
                       JobTime &T) {
  // Built by hand, as runUnderJanitizer does, so load and run are timed
  // apart.
  const Program &P = *J.Prog;
  JASanTool Jasan;
  JCFITool Jcfi(Db);
  SecurityTool &Tool = J.Tool == ToolKind::Jasan
                           ? static_cast<SecurityTool &>(Jasan)
                           : Jcfi;
  Process Proc(P.Store);
  JanitizerDynamic Dyn(Tool, Rules);
  DbiEngine Engine(Proc, Dyn);
  Error LoadErr;
  {
    JZ_TRACE_SPAN("bench.load", {{"id", Id}});
    Clock::time_point T0 = Clock::now();
    LoadErr = Proc.loadProgram(P.Exe);
    T.Load = secondsSince(T0);
  }
  if (LoadErr) {
    fail(J, "load", LoadErr.message());
    return;
  }
  RunResult R;
  {
    JZ_TRACE_SPAN("bench.run", {{"id", Id}});
    Clock::time_point T0 = Clock::now();
    R = Engine.run(MaxGuestSteps);
    T.DbiRun = secondsSince(T0);
  }
  CoverageStats Cov = Dyn.coverage();
  addDynamic(Cov, Engine.stats());
  checkRun(J, R, Proc.output(), Engine.violations(), Cov.Degradation);
}

void Runner::addDynamic(const CoverageStats &Cov, const DbiStats &D) {
  add("core.rule_lookups", Cov.RuleLookups);
  add("core.rule_hits", Cov.RuleHits);
  add("core.static_blocks", Cov.StaticBlocks);
  add("core.dynamic_blocks", Cov.DynamicBlocks);
  add("dbi.blocks_executed", D.BlocksExecuted);
  add("dbi.blocks_built", D.BlocksBuilt);
  add("dbi.dispatch_entries", D.DispatchEntries);
  add("dbi.links_followed", D.LinksFollowed);
  add("dbi.ibl_hits", D.IblHits);
  add("dbi.ibl_misses", D.IblMisses);
  add("dbi.traces_built", D.TracesBuilt);
  add("dbi.jit_compiled", D.JitCompiled);
  add("dbi.jit_refused", D.JitRefused);
  add("dbi.jit_execs", D.JitExecs);
  uint64_t &Arena = Out.Counts["dbi.jit_arena_bytes"];
  Arena = std::max(Arena, D.JitArenaBytes);
}

void Runner::checkRun(const Job &J, const RunResult &R,
                      const std::string &Output,
                      const std::vector<Violation> &Vs,
                      const DegradationReport &LoadDegradation) {
  const Program &P = *J.Prog;
  add("vm.guest_cycles", R.Cycles);
  add("vm.guest_retired", R.Retired);
  add(std::string(toolName(J.Tool)) + ".violations", Vs.size());
  if (!LoadDegradation.empty()) {
    fail(J, "load", degradationSummary(LoadDegradation));
    return;
  }
  if (R.St != RunResult::Status::Exited) {
    fail(J, "run",
         "did not exit" + (R.FaultMsg.empty() ? "" : ": " + R.FaultMsg));
    return;
  }
  Out.LogSlowdowns.push_back(std::log(static_cast<double>(R.Cycles) /
                                      static_cast<double>(P.NativeCycles)));
  // A violating bad variant may legitimately print less; every other
  // program must reproduce the native output exactly.
  if ((!P.Juliet || !P.Bad) && Output != P.Reference) {
    fail(J, "run", "output '" + Output + "' != native '" + P.Reference + "'");
    return;
  }
  if (!P.Juliet) {
    if (!Vs.empty())
      fail(J, "verdict", violationSummary(Vs));
    return;
  }
  // Figure 10 tally: distinct (PC, What) pairs against the case's count.
  size_t Distinct = distinctViolations(Vs);
  bool Flagged = P.Bad ? Distinct >= P.ExpectedViolations : Distinct > 0;
  std::string Verdict =
      P.Bad ? (Flagged ? "true_positives" : "false_negatives")
            : (Flagged ? "false_positives" : "true_negatives");
  add("jasan." + Verdict, 1);
  if (P.Bad ? Flagged != P.ExpectDetected : Flagged)
    Out.VerdictMismatches.push_back(
        {P.Name, "verdict",
         Verdict + " where Figure 10 expects otherwise (" +
             std::to_string(Distinct) + " distinct violations)"});
}

void Runner::run(const Job &J, uint64_t Id) {
  const Program &P = *J.Prog;
  std::string IdStr = std::to_string(Id);
  ++Out.Attempted;
  JobTime T;
  {
    JZ_TRACE_SPAN("bench.program", {{"id", IdStr}, {"program", P.Name}});
    Clock::time_point T0 = Clock::now();
    RuleStore Rules;
    JcfiDatabase Db;
    JASanTool JasanStatic;
    JCFITool JcfiStatic(Db);
    JcfiStatic.setStaticOutput(&Db);
    SecurityTool &StaticTool =
        J.Tool == ToolKind::Jasan ? static_cast<SecurityTool &>(JasanStatic)
                                  : JcfiStatic;
    if (analyze(J, IdStr, StaticTool, Rules, T)) {
      if (W == WorkloadKind::SpecAot)
        runAot(J, IdStr, Rules, T);
      else
        runHybrid(J, IdStr, Rules, Db, T);
    }
    T.Verdict = secondsSince(T0);
  }
  Out.Times.push_back(T);
}

// --- passes ---------------------------------------------------------------------

/// Pins the calling thread to the next CPU it may use, in turn. Other
/// tenants of a shared host slow single cores down for minutes at a time;
/// rotating passes across cores lets each program's fastest pass (see
/// Fastest) come from a core that was not contended.
void pinToNextCpu() {
  static const std::vector<int> Cpus = [] {
    cpu_set_t S;
    if (sched_getaffinity(0, sizeof(S), &S) != 0)
      fatal("sched_getaffinity failed");
    std::vector<int> V;
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &S))
        V.push_back(C);
    return V;
  }();
  static size_t Next = 0;
  cpu_set_t S;
  CPU_ZERO(&S);
  CPU_SET(Cpus[Next++ % Cpus.size()], &S);
  if (sched_setaffinity(0, sizeof(S), &S) != 0)
    fatal("sched_setaffinity failed");
}

PassResult runPass(WorkloadKind W, const std::vector<Job> &Jobs, bool Traced) {
  pinToNextCpu();
  PassResult Out;
  std::string CacheDir;
  if (W != WorkloadKind::JulietCold) {
    // Created empty in the working directory for every pass, so each pass
    // writes the cache once per shared library and reads it back for the
    // other programs.
    fs::path Dir = "rule-cache";
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    CacheDir = Dir.string();
  }
  Runner R(W, Out, CacheDir);
  TraceCollector &TC = TraceCollector::instance();
  uint64_t Id = 0;
  for (const Job &J : Jobs) {
    if (Traced)
      TC.start();
    R.run(J, ++Id);
    if (Traced) {
      TC.stop();
      // Roll up per program, so the per-thread event bound applies to
      // one program rather than the whole pass.
      Out.Spans.push_back(rollUpTrace());
      Out.DroppedEvents += TC.droppedCount();
      TC.clear();
    }
  }
  if (!CacheDir.empty())
    fs::remove_all(CacheDir);
  return Out;
}

/// Each job's fastest time over the passes folded in so far. Other tenants
/// of a shared host slow whole seconds of a run down by up to 2x; the
/// per-program minimum removes that interference where a median over
/// passes cannot. Memory stays constant however many passes run.
struct Fastest {
  unsigned Passes = 0;
  std::vector<JobTime> Times;
  std::vector<JobSpans> Spans;
  uint64_t DroppedEvents = 0;

  void fold(const PassResult &P) {
    DroppedEvents += P.DroppedEvents;
    if (Passes++ == 0) {
      Times = P.Times;
      Spans = P.Spans;
      return;
    }
    for (size_t J = 0; J < Times.size(); ++J) {
      JobTime &T = Times[J];
      const JobTime &N = P.Times[J];
      // Setup and run each take the pass whose total is fastest, so each
      // stays the sum of one pass's layer times.
      if (N.setup() < T.setup()) {
        T.Analyze = N.Analyze;
        T.Rewrite = N.Rewrite;
      }
      if (N.run() < T.run()) {
        T.Load = N.Load;
        T.DbiRun = N.DbiRun;
        T.AotRun = N.AotRun;
      }
      T.Verdict = std::min(T.Verdict, N.Verdict);
    }
    for (size_t J = 0; J < Spans.size(); ++J)
      for (size_t I = 0; I < NumSpans; ++I) {
        Spans[J][I].SelfNs = std::min(Spans[J][I].SelfNs, P.Spans[J][I].SelfNs);
        Spans[J][I].TotalNs =
            std::min(Spans[J][I].TotalNs, P.Spans[J][I].TotalNs);
      }
  }

  double sum(double (JobTime::*Get)() const) const {
    double S = 0;
    for (const JobTime &T : Times)
      S += (T.*Get)();
    return S;
  }
  double sum(double JobTime::*F) const {
    double S = 0;
    for (const JobTime &T : Times)
      S += T.*F;
    return S;
  }
  double spanSum(size_t I, uint64_t SpanTotal::*F) const {
    double S = 0;
    for (const JobSpans &JS : Spans)
      S += static_cast<double>(JS[I].*F);
    return S;
  }
};

// --- reporting ------------------------------------------------------------------

/// Nearest-rank percentile.
double percentile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

/// Summed in sorted order, so the total does not depend on program order.
double logSlowdownSum(const PassResult &P) {
  std::vector<double> V = P.LogSlowdowns;
  std::sort(V.begin(), V.end());
  double S = 0;
  for (double L : V)
    S += L;
  return S;
}

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss also counts the image before exec, i.e. the launcher's.)
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    fatal("cannot read /proc/self/status");
  char Line[256];
  unsigned long Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lu kB", &Kb) == 1)
      break;
  std::fclose(F);
  if (!Kb)
    fatal("no VmHWM in /proc/self/status");
  return static_cast<double>(Kb) / 1024.0;
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string S = "{";
  for (const Metric &M : Ms) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  S.size() > 1 ? ", " : "", M.Name.c_str(), M.Value, M.Unit);
    S += Buf;
  }
  return S + "}";
}

/// Per-layer metrics derived from one pass's exact counters.
std::vector<Metric> counterMetrics(const PassResult &P, double RunS) {
  auto C = [&](const char *N) {
    auto It = P.Counts.find(N);
    return It == P.Counts.end() ? uint64_t(0) : It->second;
  };
  auto Cm = [&](const char *N, const char *Unit = "count") {
    return Metric{N, static_cast<double>(C(N)), Unit};
  };
  return {
      Cm("core.modules_analyzed"),
      Cm("core.blocks_discovered"),
      Cm("core.instructions_decoded"),
      Cm("core.rules_emitted"),
      Cm("core.noop_rules"),
      Cm("core.modules_degraded"),
      Cm("core.rule_lookups"),
      {"core.rule_hit_rate",
       ratio(C("core.rule_hits"), C("core.rule_lookups")), "ratio"},
      {"core.dynamic_fraction",
       ratio(C("core.dynamic_blocks"),
             C("core.static_blocks") + C("core.dynamic_blocks")),
       "ratio"},
      Cm("rules.cache_hits"),
      Cm("rules.cache_misses"),
      {"rules.cache_hit_rate",
       ratio(C("rules.cache_hits"),
             C("rules.cache_hits") + C("rules.cache_misses")),
       "ratio"},
      Cm("vm.guest_cycles", "cycles"),
      Cm("vm.guest_retired", "instr"),
      {"vm.guest_mips", RunS > 0 ? C("vm.guest_retired") / RunS / 1e6 : 0.0,
       "Minstr/s"},
      Cm("dbi.blocks_executed"),
      Cm("dbi.blocks_built"),
      Cm("dbi.dispatch_entries"),
      Cm("dbi.links_followed"),
      {"dbi.ibl_hit_rate",
       ratio(C("dbi.ibl_hits"), C("dbi.ibl_hits") + C("dbi.ibl_misses")),
       "ratio"},
      Cm("dbi.traces_built"),
      Cm("dbi.jit_compiled"),
      Cm("dbi.jit_refused"),
      {"dbi.jit_exec_share",
       ratio(C("dbi.jit_execs"), C("dbi.blocks_executed")), "ratio"},
      Cm("dbi.jit_arena_bytes", "bytes"),
      Cm("rewrite.native_legs"),
      Cm("rewrite.dbi_legs"),
      Cm("rewrite.tier_enters"),
      Cm("rewrite.intercepts"),
      Cm("rewrite.aot_checks"),
      Cm("rewrite.vacated_enters"),
      Cm("jasan.violations"),
      Cm("jcfi.violations"),
      {"false_negatives", static_cast<double>(C("jasan.false_negatives")),
       "count"},
      {"false_positives", static_cast<double>(C("jasan.false_positives")),
       "count"},
      {"fail_frac", ratio(P.Failures.size(), P.Attempted), "ratio"},
  };
}

/// The same inputs must give the same counters in every pass.
bool sameCounters(const PassResult &A, const PassResult &B) {
  return A.Counts == B.Counts && A.LogSlowdowns == B.LogSlowdowns &&
         A.Failures.size() == B.Failures.size() &&
         A.VerdictMismatches.size() == B.VerdictMismatches.size();
}

void printFailures(const char *Workload, const PassResult &P) {
  for (const Failure &F : P.Failures)
    std::printf("FAILED %s %s stage=%s: %s\n", Workload, F.Program.c_str(),
                F.Stage.c_str(), F.Message.c_str());
}

std::string countsJson(const PassResult &P) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", logSlowdownSum(P));
  std::string S = "{\"attempted\": " + std::to_string(P.Attempted) +
                  ", \"failed\": " + std::to_string(P.Failures.size()) +
                  ", \"slowdown_log_sum\": " + Buf + ", \"counts\": {";
  bool First = true;
  for (const auto &[K, V] : P.Counts) {
    S += (First ? "\"" : ", \"") + K + "\": " + std::to_string(V);
    First = false;
  }
  return S + "}}";
}

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  bool CheckCounts = false;
};

Args parseArgs(int argc, char **argv) {
  Args A;
  bool HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    std::string K = argv[I];
    if (I + 1 >= argc)
      fatal("missing value for " + K);
    std::string V = argv[++I];
    if (K == "--workload") {
      A.Workload = V;
    } else if (K == "--seed") {
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
      HaveSeed = true;
    } else if (K == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), nullptr);
    } else if (K == "--trace") {
      A.Trace = V == "1";
    } else if (K == "--check" && V == "counts") {
      A.CheckCounts = true;
    } else {
      fatal("unknown argument " + K + " " + V);
    }
  }
  if (A.Workload.empty() || !HaveSeed)
    fatal("usage: jz-perfbench --workload spec-hybrid|juliet-cold|spec-aot "
          "--seed N (--seconds S --trace 0|1 | --check counts)");
  return A;
}

} // namespace

int main(int argc, char **argv) {
  Args A = parseArgs(argc, argv);
  WorkloadKind W;
  if (A.Workload == "spec-hybrid")
    W = WorkloadKind::SpecHybrid;
  else if (A.Workload == "juliet-cold")
    W = WorkloadKind::JulietCold;
  else if (A.Workload == "spec-aot")
    W = WorkloadKind::SpecAot;
  else
    fatal("unknown workload '" + A.Workload + "'");

  for (const char *V : PinnedEnv) {
    // A fault campaign is scored with --check counts; nothing else may run
    // with an engine-changing variable set.
    if (A.CheckCounts && std::strcmp(V, "JZ_FAULTS") == 0)
      continue;
    if (std::getenv(V))
      fatal(std::string("refusing to run with ") + V +
            " set: it changes the engine under measurement");
  }

  std::vector<Program> Progs =
      W == WorkloadKind::JulietCold ? prepareJuliet()
      : W == WorkloadKind::SpecAot  ? prepareSpec(AotWorkScale)
                                    : prepareSpec(HybridWorkScale);
  std::vector<Job> Jobs = makeJobs(W, Progs);
  // --seconds covers everything after workload preparation.
  Clock::time_point Start = Clock::now();
  // An untimed warm-up pass in canonical order lets lazy set-up finish, so
  // the program that happens to run first under the seed's order does not
  // pay for it (in time, or in the resident-set high-water mark).
  if (!A.CheckCounts)
    runPass(W, Jobs, false);
  std::mt19937_64 Rng(A.Seed);
  std::shuffle(Jobs.begin(), Jobs.end(), Rng);

  PassResult First = runPass(W, Jobs, false);
  // Read after the first measured pass: later passes repeat the same work,
  // and the high-water mark they leave depends on how many fit in
  // --seconds.
  double PeakRssMb = peakRssMb();
  printFailures(A.Workload.c_str(), First);
  if (A.CheckCounts) {
    std::printf("%s\n", countsJson(First).c_str());
    return 0;
  }

  // Measured run: untraced passes for the whole budget (--trace 0), or
  // untraced and traced passes in alternation (--trace 1), so drift over
  // the run reaches both sides of trace_overhead alike.
  std::vector<std::string> Defects;
  for (const Failure &F : First.VerdictMismatches)
    Defects.push_back(F.Program + ": " + F.Message);
  Fastest Plain, Traced;
  Plain.fold(First);
  for (unsigned PassNo = 1;; ++PassNo) {
    if (A.Trace) {
      PassResult P = runPass(W, Jobs, true);
      if (!sameCounters(P, First))
        Defects.push_back("traced pass " + std::to_string(PassNo) +
                          ": counters differ from pass 0 with the same inputs");
      Traced.fold(P);
    }
    if (Plain.Passes >= MinPasses && secondsSince(Start) >= A.Seconds)
      break;
    PassResult P = runPass(W, Jobs, false);
    if (!sameCounters(P, First))
      Defects.push_back("pass " + std::to_string(PassNo) +
                        ": counters differ from pass 0 with the same inputs");
    Plain.fold(P);
  }

  double RunS = Plain.sum(&JobTime::run);
  std::vector<Metric> Ms;
  if (!A.Trace) {
    std::vector<double> Verdicts;
    for (const JobTime &T : Plain.Times)
      Verdicts.push_back(T.Verdict * 1e3);
    size_t Ran = First.LogSlowdowns.size();
    Ms = {
        {"setup_s", Plain.sum(&JobTime::setup), "s"},
        {"run_s", RunS, "s"},
        {"slowdown_geomean", Ran ? std::exp(logSlowdownSum(First) / Ran) : 0.0,
         "x"},
        {"verdict_p50_ms", percentile(Verdicts, 0.50), "ms"},
        {"verdict_p99_ms", percentile(Verdicts, 0.99), "ms"},
        {"peak_rss_mb", PeakRssMb, "MB"},
    };
    std::printf("%s: %u passes, %u programs per pass (= verdict samples)\n",
                A.Workload.c_str(), Plain.Passes, First.Attempted);
  } else {
    Ms = counterMetrics(First, RunS);
    Ms.push_back({"core.analyze_s", Plain.sum(&JobTime::Analyze), "s"});
    Ms.push_back({"rewrite.rewrite_s", Plain.sum(&JobTime::Rewrite), "s"});
    Ms.push_back({"vm.load_s", Plain.sum(&JobTime::Load), "s"});
    Ms.push_back({"dbi.run_s", Plain.sum(&JobTime::DbiRun), "s"});
    Ms.push_back(
        {"trace_overhead", Traced.sum(&JobTime::run) / RunS, "x"});
    Ms.push_back({"trace.dropped_events",
                  static_cast<double>(Traced.DroppedEvents), "count"});
    for (size_t I = 0; I < NumSpans; ++I) {
      std::string N = std::string("span.") + SpanNames[I];
      Ms.push_back({N + ".count", Traced.spanSum(I, &SpanTotal::Count),
                    "count"});
      Ms.push_back(
          {N + ".self_s", Traced.spanSum(I, &SpanTotal::SelfNs) / 1e9, "s"});
      if (std::strncmp(SpanNames[I], "bench.", 6) == 0 &&
          std::strcmp(SpanNames[I], "bench.program") != 0)
        Ms.push_back(
            {N + ".total_s", Traced.spanSum(I, &SpanTotal::TotalNs) / 1e9, "s"});
    }
    if (Traced.DroppedEvents)
      Defects.push_back("trace incomplete: " +
                        std::to_string(Traced.DroppedEvents) +
                        " events dropped");
    std::printf("%s: %u untraced + %u traced passes, %u programs per pass\n",
                A.Workload.c_str(), Plain.Passes, Traced.Passes,
                First.Attempted);
  }
  for (const std::string &D : Defects)
    std::printf("DEFECT %s: %s\n", A.Workload.c_str(), D.c_str());
  for (const Metric &M : Ms)
    std::printf("  %-32s %16.6g %s\n", M.Name.c_str(), M.Value, M.Unit);

  bool Correct = First.Failures.empty() && Defects.empty();
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false", First.Attempted,
              First.Failures.size(), metricsJson(Ms).c_str());
  return 0;
}
