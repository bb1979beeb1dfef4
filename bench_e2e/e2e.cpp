// End-to-end benchmark of the Par-Eclat pipeline (driven by run.py).
//
//   e2e gen   --workload=W --seed=S --out=FILE [--scale=X]
//       Generate the workload's database with gen::QuestGenerator and write
//       it as a FIMI-style text file. Prints one JSON line with the
//       absolute minimum support the run must use.
//   e2e run   --workload=W --file=FILE --minsup=M --seconds=S [--threads=T]
//   e2e trace --workload=W --file=FILE --minsup=M --seconds=S
//             --trace-dir=DIR [--threads=T]
//       Load FILE and run closed-loop mining jobs (one caller, whole jobs
//       back to back) for S seconds; `trace` instead runs the staged
//       pipeline with a span around every call into a library layer.
//       Both end with a line "E2E_RESULT {json}" that run.py parses.
//
// Every job's result bytes are compared against the reference, which is
// sequential Eclat with the library defaults, computed once, untimed, and
// cross-checked against Par-Eclat on the mc simulator at T=1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/mining.hpp"
#include "apriori/apriori.hpp"
#include "bench/bench_util.hpp"
#include "common/clock.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "data/io.hpp"
#include "data/result_io.hpp"
#include "eclat/compute_frequent.hpp"
#include "eclat/eclat_seq.hpp"
#include "gen/quest.hpp"
#include "parallel/pipeline.hpp"
#include "span_trace.hpp"
#include "vertical/vertical_db.hpp"

namespace e2e {
namespace {

using namespace eclat;
using Bytes = std::vector<std::uint8_t>;

// Why each workload exists is recorded in README.md. Each workload is a
// fixed Quest population of twice |D| transactions; the benchmark seed
// draws the |D| transactions a run mines. So the seed varies the sample,
// not the pattern pool: with |L| = 100, a pool-wide seed changes which long
// patterns exist and with them the size of a dense job (the itemset count
// at 0.5% varied 1.6x over seeds 1-5).
struct Workload {
  const char* name;
  std::size_t transactions;   ///< |D| at scale 1
  double avg_length;          ///< |T|
  double pattern_length;      ///< |I|
  Item items;                 ///< N
  std::size_t patterns;       ///< |L|
  double min_support;         ///< relative
};

constexpr Workload kWorkloads[] = {
    {"sparse-invert", 200'000, 10, 4, 1000, 2000, 0.0025},
    {"dense-mine", 20'000, 15, 6, 100, 100, 0.0075},
    {"wide-count", 200'000, 10, 4, 5000, 2000, 0.005},
};

constexpr std::uint64_t kPopulationSeed = 1;

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

double support_fraction(Count minsup, std::size_t transactions) {
  // absolute_support() takes the ceiling, so this maps back to `minsup`.
  return (static_cast<double>(minsup) - 0.5) /
         static_cast<double>(transactions);
}

int cmd_gen(const Flags& flags) {
  const Workload& w = find_workload(flags.get("workload", ""));
  const double scale = flags.get_double("scale", 1.0);
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             static_cast<double>(w.transactions) * scale)));
  gen::QuestConfig config;
  config.num_transactions = 2 * n;
  config.avg_transaction_length = w.avg_length;
  config.avg_pattern_length = w.pattern_length;
  config.num_items = w.items;
  config.num_patterns = w.patterns;
  config.seed = kPopulationSeed;
  const HorizontalDatabase population = gen::QuestGenerator(config).generate();

  // Draw n of the 2n transactions without replacement (partial
  // Fisher-Yates), kept in population order and renumbered.
  std::vector<std::size_t> pick(population.size());
  std::iota(pick.begin(), pick.end(), std::size_t{0});
  Rng rng(flags.get_uint("seed", 1));
  for (std::size_t i = 0; i < n; ++i) {
    std::swap(pick[i], pick[i + rng.below(pick.size() - i)]);
  }
  pick.resize(n);
  std::sort(pick.begin(), pick.end());
  std::vector<Transaction> sample;
  sample.reserve(n);
  for (std::size_t i : pick) {
    sample.push_back(Transaction{static_cast<Tid>(sample.size()),
                                 population[i].items});
  }
  const HorizontalDatabase db(std::move(sample), population.num_items());
  write_text_file(db, flags.get("out", ""));
  std::printf("{\"minsup\": %u, \"transactions\": %zu}\n",
              static_cast<unsigned>(absolute_support(w.min_support, n)), n);
  return 0;
}

// ---------------------------------------------------------------------------
// Measurement helpers.

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;  ///< timed samples (empty for counts)
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Metric timing(std::string name, std::vector<double> samples) {
  Metric m{std::move(name), "s", median(samples), std::move(samples)};
  return m;
}

Metric scalar(std::string name, std::string unit, double value) {
  return Metric{std::move(name), std::move(unit), value, {}};
}

// Highest percentile with at least ten samples beyond it (nearest rank);
// nullopt below 20 samples, where no such percentile is meaningful.
std::optional<std::pair<int, double>> tail(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n < 20) return std::nullopt;
  std::sort(v.begin(), v.end());
  const int pct = static_cast<int>(
      std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n))));
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(static_cast<double>(pct) / 100.0 * static_cast<double>(n)));
  return std::make_pair(pct, v[std::max<std::size_t>(rank, 1) - 1]);
}

std::size_t usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(wall_ns() - start_ns) * 1e-9;
}

/// CPU seconds of every thread of this process, live or ended.
double process_cpu_s() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

struct Context {
  const Workload* workload = nullptr;
  std::string file;
  Count minsup = 1;
  double seconds = 1.0;
  std::size_t cores = 1;
  std::size_t threads = 1;
  bool corrupt_reference = false;
};

Context make_context(const Flags& flags) {
  Context ctx;
  ctx.workload = &find_workload(flags.get("workload", ""));
  ctx.file = flags.get("file", "");
  ctx.minsup = static_cast<Count>(flags.get_uint("minsup", 1));
  ctx.seconds = flags.get_double("seconds", 1.0);
  ctx.cores = usable_cores();
  ctx.threads = flags.get_uint("threads", ctx.cores);
  ctx.corrupt_reference = flags.get_bool("corrupt-reference", false);
  return ctx;
}

api::MineOptions mode_options(const Context& ctx, std::size_t n,
                              api::Algorithm algorithm,
                              exec::BackendKind backend, std::size_t workers) {
  api::MineOptions options;
  options.algorithm = algorithm;
  options.min_support = support_fraction(ctx.minsup, n);
  options.backend = backend;
  if (backend == exec::BackendKind::kThreads) {
    options.exec_threads = workers;
  } else {
    options.topology = mc::Topology{1, workers};
  }
  return options;
}

/// Job bookkeeping: every job is one operation; a job that throws or whose
/// bytes differ from the reference is a failed one.
struct Ledger {
  Bytes reference;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool cross_check_ok = true;

  void check(const MiningResult& result) {
    ++attempted;
    if (result_to_bytes(result) != reference) ++failed;
  }
  void fail(const char* what, const std::exception& e) {
    ++attempted;
    ++failed;
    std::fprintf(stderr, "e2e: %s job failed: %s\n", what, e.what());
  }
};

Ledger make_reference(const Context& ctx, const HorizontalDatabase& db) {
  Ledger ledger;
  ledger.reference = result_to_bytes(api::mine(
      db, mode_options(ctx, db.size(), api::Algorithm::kEclat,
                       exec::BackendKind::kMc, 1)));
  const MiningResult mc1 = api::mine(
      db, mode_options(ctx, db.size(), api::Algorithm::kParEclat,
                       exec::BackendKind::kMc, 1));
  ledger.cross_check_ok = result_to_bytes(mc1) == ledger.reference;
  ++ledger.attempted;
  if (!ledger.cross_check_ok) ++ledger.failed;
  if (ctx.corrupt_reference && !ledger.reference.empty()) {
    ledger.reference.back() ^= 0xFF;
  }
  return ledger;
}

void print_header(const Context& ctx, const char* mode, double wall_s) {
  char* text = nullptr;
  std::size_t size = 0;
  std::FILE* fields = open_memstream(&text, &size);
  if (fields == nullptr) throw std::runtime_error("open_memstream failed");
  eclat::bench::write_backend_fields(fields, "threads+mc+host", "wall",
                                     wall_s);
  std::fclose(fields);
  std::string flat;
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c != '\n') flat += *c;
  }
  std::free(text);
  std::printf("E2E_HEADER {\"benchmark\": \"bench_e2e\", \"mode\": \"%s\", "
              "\"workload\": \"%s\", \"nproc\": %u, \"usable_cores\": %zu, "
              "\"threads\": %zu, \"build_type\": \"%s\", "
              "\"cxx_flags\": \"%s\", \"minsup\": %u, %s "
              "\"unmeasurable\": %s}\n",
              mode, ctx.workload->name, std::thread::hardware_concurrency(),
              ctx.cores, ctx.threads, E2E_BUILD_TYPE, E2E_CXX_FLAGS,
              static_cast<unsigned>(ctx.minsup), flat.c_str(),
              ctx.threads > ctx.cores ? "true" : "false");
}

void print_result(const Context& ctx, const Ledger& ledger,
                  const std::vector<Metric>& metrics) {
  std::printf("%-32s %14s %-6s %14s %6s\n", "metric", "value", "unit",
              "tail", "n");
  for (const Metric& m : metrics) {
    const auto t = tail(m.samples);
    char tail_text[64] = "-";
    if (t) std::snprintf(tail_text, sizeof tail_text, "p%d=%.6g", t->first,
                         t->second);
    else if (!m.samples.empty()) std::snprintf(tail_text, sizeof tail_text,
                                               "max=%.6g", *std::max_element(
                                                   m.samples.begin(),
                                                   m.samples.end()));
    std::printf("%-32s %14.6g %-6s %14s %6zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), tail_text, m.samples.size());
  }
  std::printf("jobs: attempted %zu, failed %zu, reference cross-check vs mc "
              "T=1: %s\n",
              ledger.attempted, ledger.failed,
              ledger.cross_check_ok ? "ok" : "MISMATCH");
  std::string json = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
  }
  json += "}";
  std::printf("E2E_RESULT {\"workload\": \"%s\", \"correct\": %s, "
              "\"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              ctx.workload->name, ledger.failed == 0 ? "true" : "false",
              ledger.attempted, ledger.failed, json.c_str());
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics.

int cmd_run(const Flags& flags) {
  const Context ctx = make_context(flags);
  const std::int64_t start = wall_ns();
  HorizontalDatabase db = read_text_file(ctx.file);
  Ledger ledger = make_reference(ctx, db);

  // The mc simulator is timed in process CPU seconds: its host wall time
  // is mostly its simulated processors' threads waiting for one another,
  // which on a shared host measures the host's scheduler (beside three
  // busy-looping processes its wall time rose 60%, its CPU seconds 6%).
  struct Mode {
    const char* metric;
    api::MineOptions options;
    bool cpu_time;
    std::vector<double> samples = {};
  };
  std::vector<Mode> modes = {
      {"mine_s", mode_options(ctx, db.size(), api::Algorithm::kParEclat,
                              exec::BackendKind::kThreads, ctx.threads), false},
      {"seq_mine_s", mode_options(ctx, db.size(), api::Algorithm::kEclat,
                                  exec::BackendKind::kMc, 1), false},
      {"mc_cpu_s", mode_options(ctx, db.size(), api::Algorithm::kParEclat,
                                exec::BackendKind::kMc, ctx.threads), true},
  };
  // Closed loop: one caller, whole jobs back to back. Each round re-reads
  // the file (setup_s, what every caller pays to ingest it) and then runs
  // one job per mode, so slow drift on the host hits every metric alike.
  // Reads continue within a round until they take a tenth of the previous
  // round's mining time, so small files still give many setup samples.
  // One untimed warm-up job per mode first: a process's first parallel job
  // pays one-off costs (fresh malloc arenas for new threads) that a caller
  // issuing jobs back to back pays once, not per job.
  for (const Mode& mode : modes) {
    try {
      ledger.check(api::mine(db, mode.options));
    } catch (const std::exception& e) {
      ledger.fail(mode.metric, e);
    }
  }
  std::vector<double> setup;
  double last_mining = 0.0;
  const std::int64_t loop_start = wall_ns();
  for (std::size_t round = 0;
       round < 3 || seconds_since(loop_start) < ctx.seconds; ++round) {
    const std::int64_t reads_start = wall_ns();
    do {
      db = HorizontalDatabase();
      const std::int64_t t0 = wall_ns();
      db = read_text_file(ctx.file);
      setup.push_back(seconds_since(t0));
    } while (seconds_since(reads_start) < 0.1 * last_mining);
    const std::int64_t mining_start = wall_ns();
    for (Mode& mode : modes) {
      try {
        const std::int64_t t0 = wall_ns();
        const double cpu0 = process_cpu_s();
        const par::ParallelOutput out = api::mine_with_stats(db, mode.options);
        mode.samples.push_back(mode.cpu_time ? process_cpu_s() - cpu0
                                             : seconds_since(t0));
        ledger.check(out.result);
      } catch (const std::exception& e) {
        ledger.fail(mode.metric, e);
      }
    }
    last_mining = seconds_since(mining_start);
  }

  std::vector<Metric> metrics;
  metrics.push_back(timing("setup_s", setup));
  for (Mode& mode : modes) {
    metrics.push_back(timing(mode.metric, std::move(mode.samples)));
  }
  metrics.push_back(scalar("peak_rss_mb", "MiB", peak_rss_mib()));
  print_header(ctx, "run", seconds_since(start));
  print_result(ctx, ledger, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics, from spans around each library call.

constexpr IntersectKernel kForcedKernels[] = {
    IntersectKernel::kMerge,  IntersectKernel::kMergeShortCircuit,
    IntersectKernel::kGallop, IntersectKernel::kBitset,
    IntersectKernel::kChunked, IntersectKernel::kAuto,
};

double span_s(const SpanTrace& trace, std::size_t from, const char* name) {
  double total = 0.0;
  for (std::size_t i = from; i < trace.spans().size(); ++i) {
    const SpanTrace::Span& s = trace.spans()[i];
    if (s.name == name) {
      total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return total;
}

/// Per-round values of the staged pipeline (one Par-Eclat job run stage by
/// stage on the calling thread, with T-way block partitioning like the
/// threads backend).
struct StagedRound {
  std::size_t first_span = 0;
  double class_max_s = 0.0;
  IntersectStats stats;
  std::size_t pair_probes = 0;
  std::size_t invert_tids = 0;
  std::size_t mined_itemsets = 0;  ///< all of size >= 3
  std::size_t classes = 0;
  std::size_t exchanged_pairs = 0;
  double triangle_mb = 0.0;
};

StagedRound staged_job(const Context& ctx, SpanTrace& trace, Ledger& ledger,
                       HorizontalDatabase& db) {
  StagedRound r;
  r.first_span = trace.spans().size();
  const SpanTrace::Scope job(trace, "bench.staged_job");
  {
    const SpanTrace::Scope s(trace, "data.read_text");
    db = HorizontalDatabase();
    db = read_text_file(ctx.file);
  }
  const std::size_t W = ctx.threads;
  const std::span<const Transaction> all(db.transactions());
  const std::vector<Block> blocks = db.block_partition(W);

  std::vector<TriangleCounter> counters;
  {
    const SpanTrace::Scope s(trace, "vertical.triangle_alloc");
    counters.reserve(W);
    for (std::size_t w = 0; w < W; ++w) counters.emplace_back(db.num_items());
  }
  r.triangle_mb = static_cast<double>(counters[0].raw().size_bytes()) /
                  (1024.0 * 1024.0);
  {
    const SpanTrace::Scope s(trace, "vertical.count");
    for (std::size_t w = 0; w < W; ++w) counters[w].count(db.view(blocks[w]));
  }
  std::vector<Count> item_counts;
  {
    const SpanTrace::Scope s(trace, "apriori.count_items");
    item_counts = count_items(all, db.num_items());
  }
  {
    const SpanTrace::Scope s(trace, "vertical.merge");
    for (std::size_t w = 1; w < W; ++w) counters[0].merge(counters[w]);
  }
  const TriangleCounter counter = std::move(counters[0]);
  counters.clear();
  counters.shrink_to_fit();
  {
    // derive_plan calls it again; timed here as the vertical layer's share.
    const SpanTrace::Scope s(trace, "vertical.frequent_pairs");
    const std::vector<PairKey> frequent = counter.frequent_pairs(ctx.minsup);
  }
  par::MiningPlan plan;
  {
    const SpanTrace::Scope s(trace, "parallel.derive_plan");
    plan = par::derive_plan(counter, ctx.minsup, W,
                            par::ScheduleHeuristic::kGreedyWeight);
  }
  r.classes = plan.classes.size();
  r.exchanged_pairs = plan.exchanged_pairs.size();

  std::unordered_map<PairKey, TidList> lists;
  {
    const SpanTrace::Scope s(trace, "vertical.invert_pairs");
    lists = invert_pairs(all, plan.exchanged_pairs);
  }
  for (const Transaction& t : all) {
    r.pair_probes += t.items.size() * (t.items.size() - 1) / 2;
  }
  for (const auto& [key, tids] : lists) r.invert_tids += tids.size();

  std::vector<std::vector<Atom>> atoms(plan.classes.size());
  {
    const SpanTrace::Scope s(trace, "parallel.take_class_atoms");
    for (std::size_t c = 0; c < plan.classes.size(); ++c) {
      if (plan.classes[c].size() < 2) continue;  // no candidates (§4.1)
      atoms[c] = par::take_class_atoms(plan.classes[c], lists);
    }
  }

  const api::MineOptions defaults;
  std::vector<std::vector<FrequentItemset>> found(plan.classes.size());
  {
    const SpanTrace::Scope s(trace, "eclat.mine");
    TidArena arena;
    std::vector<std::size_t> histogram;
    for (std::size_t c = 0; c < plan.classes.size(); ++c) {
      if (atoms[c].empty()) continue;
      const std::int64_t t0 = wall_ns();
      {
        const SpanTrace::Scope cs(trace, "eclat.compute_frequent",
                                  "\"class\": " + std::to_string(c));
        compute_frequent(atoms[c], ctx.minsup, defaults.kernel, arena,
                         found[c], histogram, &r.stats);
      }
      r.class_max_s = std::max(r.class_max_s, seconds_since(t0));
      r.mined_itemsets += found[c].size();
    }
  }
  MiningResult result;
  {
    const SpanTrace::Scope s(trace, "parallel.finalize");
    result.database_scans = 3;
    par::append_singletons(result, item_counts, ctx.minsup);
    par::append_frequent_pairs(result, plan.frequent_pairs, counter);
    for (std::vector<FrequentItemset>& slot : found) {
      for (FrequentItemset& f : slot) result.itemsets.push_back(std::move(f));
    }
    par::finalize_result(result);
  }
  ledger.check(result);
  return r;
}

int cmd_trace(const Flags& flags) {
  const Context ctx = make_context(flags);
  const std::string dir = flags.get("trace-dir", ".");
  const std::int64_t start = wall_ns();
  SpanTrace trace(true);

  HorizontalDatabase db = read_text_file(ctx.file);
  Ledger ledger = make_reference(ctx, db);
  const std::size_t n = db.size();
  const api::MineOptions threads_opts = mode_options(
      ctx, n, api::Algorithm::kParEclat, exec::BackendKind::kThreads,
      ctx.threads);
  const api::MineOptions t1_opts = mode_options(
      ctx, n, api::Algorithm::kParEclat, exec::BackendKind::kThreads, 1);
  const api::MineOptions mc_opts = mode_options(
      ctx, n, api::Algorithm::kParEclat, exec::BackendKind::kMc, ctx.threads);

  StagedRound last;  // its counts repeat exactly from round to round
  std::vector<double> read_s, alloc_s, count_s, merge_s, pairs_s, plan_s,
      invert_s, assemble_s, mine_s, class_max_s, finalize_s;
  std::vector<std::vector<double>> kernel_s(std::size(kForcedKernels));
  std::vector<double> init_s, transform_s, async_s, reduction_s, traced_s,
      untraced_s, t1_s, mc_wall_s;
  par::ParallelOutput last_threads, last_mc;

  const auto threads_job = [&](const api::MineOptions& options,
                               const char* root) {
    const std::int64_t t0 = wall_ns();
    par::ParallelOutput out;
    {
      const SpanTrace::Scope job(trace, root);
      const SpanTrace::Scope s(trace, "api.mine_with_stats");
      out = api::mine_with_stats(db, options);
      // The backend times its own phases; lay them out as child spans so
      // the self-time table attributes the job to the exec layer.
      std::int64_t at = t0;
      for (const char* phase :
           {"initialization", "transformation", "asynchronous", "reduction"}) {
        const auto len = static_cast<std::int64_t>(
            out.phase_seconds[phase] * 1e9);
        trace.add_child(std::string("exec.") + phase, at, at + len,
                        "\"source\": \"ParallelOutput.phase_seconds\"");
        at += len;
      }
    }
    const double wall = seconds_since(t0);
    ledger.check(out.result);
    return std::make_pair(wall, out);
  };

  // Untimed warm-up, as in cmd_run, so the first traced job is not the
  // process's first parallel job.
  try {
    trace.set_enabled(false);
    for (const api::MineOptions* options : {&threads_opts, &t1_opts, &mc_opts}) {
      ledger.check(api::mine(db, *options));
    }
  } catch (const std::exception& e) {
    ledger.fail("warm-up", e);
  }
  trace.set_enabled(true);

  for (int run = 0; run < 1 || seconds_since(start) < ctx.seconds; ++run) {
    trace.set_run(run);
    try {
      const StagedRound r = staged_job(ctx, trace, ledger, db);
      const std::size_t f = r.first_span;
      read_s.push_back(span_s(trace, f, "data.read_text"));
      alloc_s.push_back(span_s(trace, f, "vertical.triangle_alloc"));
      count_s.push_back(span_s(trace, f, "vertical.count"));
      merge_s.push_back(span_s(trace, f, "vertical.merge"));
      pairs_s.push_back(span_s(trace, f, "vertical.frequent_pairs"));
      plan_s.push_back(span_s(trace, f, "parallel.derive_plan"));
      invert_s.push_back(span_s(trace, f, "vertical.invert_pairs"));
      assemble_s.push_back(span_s(trace, f, "parallel.take_class_atoms"));
      mine_s.push_back(span_s(trace, f, "eclat.mine"));
      finalize_s.push_back(span_s(trace, f, "parallel.finalize"));
      class_max_s.push_back(r.class_max_s);
      last = r;
    } catch (const std::exception& e) {
      ledger.fail("staged", e);
    }

    {
      const SpanTrace::Scope s(trace, "bench.best_seq");
      for (std::size_t k = 0; k < std::size(kForcedKernels); ++k) {
        EclatConfig config;
        config.minsup = ctx.minsup;
        config.kernel = kForcedKernels[k];
        try {
          const std::int64_t t0 = wall_ns();
          MiningResult result;
          {
            const SpanTrace::Scope ks(
                trace, "eclat.eclat_sequential",
                std::string("\"kernel\": \"") +
                    kernel_name(kForcedKernels[k]) + "\"");
            result = eclat_sequential(db, config);
          }
          kernel_s[k].push_back(seconds_since(t0));
          ledger.check(result);
        } catch (const std::exception& e) {
          ledger.fail("best_seq", e);
        }
      }
    }

    try {
      auto [wall, out] = threads_job(threads_opts, "bench.threads_job");
      traced_s.push_back(wall);
      init_s.push_back(out.phase_seconds["initialization"]);
      transform_s.push_back(out.phase_seconds["transformation"]);
      async_s.push_back(out.phase_seconds["asynchronous"]);
      reduction_s.push_back(out.phase_seconds["reduction"]);
      last_threads = std::move(out);

      trace.set_enabled(false);
      untraced_s.push_back(threads_job(threads_opts, "bench.threads_job").first);
      trace.set_enabled(true);

      t1_s.push_back(threads_job(t1_opts, "bench.threads_t1_job").first);
    } catch (const std::exception& e) {
      trace.set_enabled(true);
      ledger.fail("threads", e);
    }

    try {
      const std::int64_t t0 = wall_ns();
      {
        const SpanTrace::Scope job(trace, "bench.mc_job");
        const SpanTrace::Scope s(trace, "api.mine_with_stats");
        last_mc = api::mine_with_stats(db, mc_opts);
      }
      mc_wall_s.push_back(seconds_since(t0));
      ledger.check(last_mc.result);
    } catch (const std::exception& e) {
      ledger.fail("mc", e);
    }
  }

  std::size_t best_kernel = 0;
  std::vector<double> kernel_median(std::size(kForcedKernels));
  for (std::size_t k = 0; k < std::size(kForcedKernels); ++k) {
    kernel_median[k] = kernel_s[k].empty() ? 1e300 : median(kernel_s[k]);
    if (kernel_median[k] < kernel_median[best_kernel]) best_kernel = k;
  }
  const double eclat_mine = median(mine_s);
  const double threads_mine = median(untraced_s);
  const double best_seq = kernel_median[best_kernel];
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double W = static_cast<double>(ctx.threads);

  std::vector<Metric> metrics;
  metrics.push_back(timing("data.read_text_s", read_s));
  metrics.push_back(timing("vertical.triangle_alloc_s", alloc_s));
  metrics.push_back(timing("vertical.count_s", count_s));
  metrics.push_back(timing("vertical.merge_s", merge_s));
  metrics.push_back(timing("vertical.frequent_pairs_s", pairs_s));
  metrics.push_back(scalar("vertical.triangle_mb", "MiB", last.triangle_mb));
  metrics.push_back(timing("vertical.invert_s", invert_s));
  metrics.push_back(scalar("vertical.pair_probes", "count",
                           static_cast<double>(last.pair_probes)));
  metrics.push_back(scalar("vertical.invert_tids", "count",
                           static_cast<double>(last.invert_tids)));
  metrics.push_back(scalar("vertical.invert_hit_ratio", "ratio",
                           ratio(static_cast<double>(last.invert_tids),
                                 static_cast<double>(last.pair_probes))));
  const IntersectStats& st = last.stats;
  metrics.push_back(scalar("vertical.intersections", "count",
                           static_cast<double>(st.intersections)));
  metrics.push_back(scalar("vertical.short_circuited", "count",
                           static_cast<double>(st.short_circuited)));
  metrics.push_back(scalar("vertical.short_circuit_ratio", "ratio",
                           ratio(static_cast<double>(st.short_circuited),
                                 static_cast<double>(st.intersections))));
  metrics.push_back(scalar("vertical.tids_scanned", "count",
                           static_cast<double>(st.tids_scanned)));
  metrics.push_back(scalar("vertical.words_scanned", "count",
                           static_cast<double>(st.words_scanned)));
  metrics.push_back(scalar("vertical.rep_conversions", "count",
                           static_cast<double>(st.densified + st.sparsified)));
  metrics.push_back(timing("eclat.mine_s", mine_s));
  metrics.push_back(timing("eclat.class_max_s", class_max_s));
  metrics.push_back(scalar("eclat.class_imbalance", "ratio",
                           ratio(median(class_max_s) * W, eclat_mine)));
  metrics.push_back(scalar("eclat.itemsets", "count",
                           static_cast<double>(last.mined_itemsets)));
  metrics.push_back(scalar("eclat.useful_ratio", "ratio",
                           ratio(static_cast<double>(last.mined_itemsets),
                                 static_cast<double>(st.intersections))));
  metrics.push_back(timing("eclat.best_seq_s", kernel_s[best_kernel]));
  metrics.push_back(timing("parallel.derive_plan_s", plan_s));
  metrics.push_back(timing("parallel.assemble_s", assemble_s));
  metrics.push_back(timing("parallel.finalize_s", finalize_s));
  metrics.push_back(scalar("parallel.classes", "count",
                           static_cast<double>(last.classes)));
  metrics.push_back(scalar("parallel.exchanged_pairs", "count",
                           static_cast<double>(last.exchanged_pairs)));
  metrics.push_back(timing("exec.init_s", init_s));
  metrics.push_back(timing("exec.transform_s", transform_s));
  metrics.push_back(timing("exec.async_s", async_s));
  metrics.push_back(timing("exec.reduction_s", reduction_s));
  metrics.push_back(timing("exec.t1_mine_s", t1_s));
  metrics.push_back(scalar("exec.scaling_efficiency", "ratio",
                           ratio(median(t1_s), W * threads_mine)));
  metrics.push_back(scalar("exec.speedup_vs_best_seq", "ratio",
                           ratio(best_seq, threads_mine)));
  metrics.push_back(scalar("exec.task_failures", "count",
                           static_cast<double>(last_threads.exec_task_failures)));
  metrics.push_back(scalar("exec.task_retries", "count",
                           static_cast<double>(last_threads.exec_task_retries)));
  metrics.push_back(timing("mc.wall_s", mc_wall_s));
  metrics.push_back(scalar("mc.makespan_s", "s_virt", last_mc.total_seconds));
  metrics.push_back(scalar("mc.setup_s", "s_virt", last_mc.setup_seconds()));
  metrics.push_back(scalar("mc.bytes", "B", static_cast<double>(last_mc.mc_bytes)));
  metrics.push_back(scalar("mc.messages", "count",
                           static_cast<double>(last_mc.mc_messages)));
  metrics.push_back(scalar("trace.overhead_ratio", "ratio",
                           ratio(median(traced_s), threads_mine)));

  const std::string stem = dir + "/" + ctx.workload->name;
  trace.write_chrome_json(stem + ".trace.json");
  const std::string table = trace.self_time_table();
  if (std::FILE* out = std::fopen((stem + ".layers.txt").c_str(), "w")) {
    std::fputs(table.c_str(), out);
    std::fclose(out);
  } else {
    throw std::runtime_error("cannot write " + stem + ".layers.txt");
  }
  std::printf("%s", table.c_str());
  std::printf("best sequential kernel: %s (%.6g s)\n",
              kernel_name(kForcedKernels[best_kernel]), best_seq);
  print_header(ctx, "trace", seconds_since(start));
  print_result(ctx, ledger, metrics);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    const eclat::Flags flags(argc, argv);
    const std::string cmd =
        flags.positional().empty() ? "" : flags.positional().front();
    if (cmd == "gen") return e2e::cmd_gen(flags);
    if (cmd == "run") return e2e::cmd_run(flags);
    if (cmd == "trace") return e2e::cmd_trace(flags);
    std::fprintf(stderr, "usage: e2e gen|run|trace --workload=NAME ...\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e: %s\n", e.what());
    return 1;
  }
}
