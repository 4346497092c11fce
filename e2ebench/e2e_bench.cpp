/**
 * @file
 * End-to-end proving benchmark: real proofs through the library's
 * public entry points, timed on the host wall clock and normalised by a
 * host-speed probe run between timed steps.
 *
 *   e2e_bench --workload tc-large|hdg-durable|serve-mixed --seed N
 *             --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
 *             [--source-id ID]
 *
 * Prints an environment stamp line, the time metrics as measured (with
 * --trace 0), a line of computed counts, and as its last line one JSON
 * object {correct, attempted, failed, metrics}.
 * With --trace 0 the metrics are the end-to-end set; with --trace 1
 * the run is split into an untraced half and a traced replay of the
 * same tasks, and the metrics are the per-layer set taken from the
 * traced half's spans. Spans are recorded from this file only, around
 * calls into the library (stage hooks, ExecContext region stats, a
 * timing ProofExecutor wrapper, journal/server/recovery counters).
 *
 * e2ebench/README.md gives the workloads' rationale and the metric
 * definitions. Exit codes: 0 ok, 1 incorrect output, 2 usage,
 * 3 refused (debug or sanitizer build).
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/DurableService.h"
#include "core/HighDegreeSnark.h"
#include "core/PipelinedSystem.h"
#include "core/Serialize.h"
#include "core/Snark.h"
#include "exec/ExecContext.h"
#include "ff/FieldBackend.h"
#include "gpusim/Device.h"
#include "gpusim/DeviceSpec.h"
#include "net/Client.h"
#include "net/Executor.h"
#include "net/Server.h"
#include "util/Rng.h"

namespace {

using namespace bzk;
using Clock = std::chrono::steady_clock;
using sched::ProtocolKind;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

// Workload shapes (README.md gives the reasons).
constexpr unsigned kTcVars = 16;
/** A tc-large pass runs at least this many proofs (if its time cap
 *  allows), so its p90 has at least 10 samples above it. */
constexpr size_t kMinTailSamples = 101;
constexpr unsigned kHdgVars = 14;
constexpr size_t kHdgRoundTasks = 16;
constexpr unsigned kServeVars = 12;
constexpr double kServeRatePerS = 18.0;
constexpr size_t kServeWorkers = 2;
/** Longest open-loop schedule a run may ask for. */
constexpr size_t kMaxServeTasks = size_t{1} << 16;
constexpr uint64_t kServeTenants[2] = {1, 2};
/** The open-loop run is invalid when the generator's p99 lag behind
 *  its schedule exceeds this share of the inter-arrival gap. A single
 *  late send is charged to latency (requests are timed from when they
 *  were due); a generator that lags on more than 1% of sends offers
 *  less load than stated. */
constexpr double kMaxLagShare = 0.25;
constexpr double kLagQuantile = 0.99;
/** setup_s: each set-up is timed as the total of a batch of
 *  repetitions, the batches are spread over the run, and setup_s is the
 *  fastest batch's normalised mean: set-ups of a fraction of a
 *  millisecond hinge on thread wake-ups, which other guests delay by
 *  up to 2x in some batches and not in others. Prover
 *  constructions: one batch before every tc-large proof. Service
 *  reopens: one batch per hdg-durable round. Server starts: batches
 *  before and after the serve-mixed load. */
constexpr size_t kTcSetupBatch = 32;
constexpr size_t kHdgReopenBatch = 4;
constexpr size_t kServeSetupBatch = 8;
/** Batches of server starts on each side of the serve-mixed load. */
constexpr size_t kServeSetupBatches = 8;
/** Host-speed probe: words per thread (1 MiB, L2-resident), passes
 *  over them, and the probe's time on an unloaded host of the kind the
 *  benchmark was tuned on. Only the ratio of a probe to this reference
 *  enters the metrics. Single-thread steps are normalised by a
 *  single-thread probe with fewer passes; the serve-mixed generator
 *  takes it in the slack between sends, at most every kLoadProbeGapMs. */
constexpr size_t kProbeWords = size_t{1} << 17;
constexpr size_t kProbePasses = 40;
constexpr double kProbeRefMs = 12.5;
constexpr size_t kShortProbePasses = 8;
constexpr double kLoadProbeGapMs = 250.0;
/** serve-mixed verifies a received proof only when the next send is
 *  at least this far off, so verification never delays a send. */
constexpr double kVerifySlackMs = 10.0;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Host-speed probe. On a shared VM the host runs up to ~2.7x faster or
 * slower within a minute, with every timing moving together. A fixed
 * integer kernel, owned by this file so that no change to the library
 * moves it, runs next to the timed work. Time metrics are divided by the
 * probe's slowness (probe time over its unloaded-host time) measured
 * around them; README.md, "Host-speed normalisation", shows how well it
 * tracks.
 */
class SpeedProbe
{
  public:
    /** One kernel run makes @p passes passes on each of @p threads
     *  threads; a sample is the fastest of @p reps runs, so that a sample
     *  taken next to I/O the kernel flushes in the background does not
     *  read that flush, which the timed work did not feel. */
    SpeedProbe(size_t threads, size_t passes, size_t reps)
        : bufs_(threads, std::vector<uint64_t>(kProbeWords, 1)),
          passes_(passes), reps_(reps)
    {
    }

    /** Take one sample. */
    void
    sample()
    {
        double best = 0.0;
        auto t0 = Clock::now();
        for (size_t r = 0; r < reps_; ++r) {
            auto r0 = Clock::now();
            std::vector<std::thread> pool;
            for (size_t t = 0; t < bufs_.size(); ++t)
                pool.emplace_back([this, t] { mix(bufs_[t], t); });
            for (auto &th : pool)
                th.join();
            double ms = msBetween(r0, Clock::now());
            best = r == 0 ? ms : std::min(best, ms);
        }
        samples_.push_back({t0, best});
    }

    /** Slowness around [@p from, @p to]: the median of the samples
     *  taken within @p pad_ms of it (all samples if none is). */
    double
    slowness(Clock::time_point from, Clock::time_point to,
             double pad_ms) const
    {
        std::vector<double> near;
        for (const auto &[at, ms] : samples_)
            if (msBetween(at, from) <= pad_ms && msBetween(to, at) <= pad_ms)
                near.push_back(ms);
        return near.empty() ? slowness() : percentile(near, 0.5) / refMs();
    }

    /** Slowness over the whole run. */
    double
    slowness() const
    {
        std::vector<double> all;
        for (const auto &sample : samples_)
            all.push_back(sample.second);
        return percentile(all, 0.5) / refMs();
    }

  private:
    double
    refMs() const
    {
        return kProbeRefMs * static_cast<double>(passes_) / kProbePasses;
    }

    void
    mix(std::vector<uint64_t> &buf, uint64_t t) const
    {
        uint64_t x = 0x9e3779b97f4a7c15ULL + t;
        for (size_t pass = 0; pass < passes_; ++pass)
            for (uint64_t &b : buf) {
                x ^= b;
                x *= 0xff51afd7ed558ccdULL;
                x ^= x >> 29;
                b = x;
            }
    }

    std::vector<std::vector<uint64_t>> bufs_;
    size_t passes_;
    size_t reps_;
    std::vector<std::pair<Clock::time_point, double>> samples_;
};

/** Samples of one timed quantity, as measured and divided by the host
 *  slowness measured around each. */
struct Timed
{
    std::vector<double> raw;
    std::vector<double> norm;

    void
    add(double value, double slowness)
    {
        raw.push_back(value);
        norm.push_back(value / slowness);
    }
};

/** Public encoder seed and first task id, derived from --seed. */
struct TaskSource
{
    uint64_t pub_seed = 0;
    uint64_t first_id = 0;

    explicit TaskSource(uint64_t seed)
    {
        Rng rng(seed * 0x2545f4914f6cdd1dULL + 0x5eed);
        pub_seed = 1 + rng.nextBounded(1u << 20);
        first_id = 1 + rng.nextBounded(1u << 30);
    }
};

// ------------------------------------------------------------------
// Spans: name, start, end, parent, task id — kept in memory, written
// out at the end, aggregated into per-layer self times.

struct Span
{
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int64_t parent = -1;
    uint64_t task = 0;
};

class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

    int64_t
    add(const std::string &name, Clock::time_point start,
        Clock::time_point end, int64_t parent, uint64_t task)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(Span{name, msBetween(epoch_, start),
                              msBetween(epoch_, end), parent, task});
        return static_cast<int64_t>(spans_.size()) - 1;
    }

    /** Set the end of span @p id, added before its end was known. */
    void
    finish(int64_t id, Clock::time_point end)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<size_t>(id)].end_ms = msBetween(epoch_, end);
    }

    struct Agg
    {
        size_t count = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
    };

    /** Per-name count, summed duration and summed self time. */
    std::map<std::string, Agg>
    aggregate() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<double> child_ms(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child_ms[static_cast<size_t>(s.parent)] +=
                    s.end_ms - s.start_ms;
        std::map<std::string, Agg> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            Agg &a = out[spans_[i].name];
            double dur = spans_[i].end_ms - spans_[i].start_ms;
            ++a.count;
            a.total_ms += dur;
            a.self_ms += dur - child_ms[i];
        }
        return out;
    }

    bool
    write(const std::string &path) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "[\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,"
                         "\"end_ms\":%.6f,\"parent\":%lld,\"task\":%llu}%s\n",
                         i, s.name.c_str(), s.start_ms, s.end_ms,
                         static_cast<long long>(s.parent),
                         static_cast<unsigned long long>(s.task),
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]\n");
        return std::fclose(f) == 0;
    }

  private:
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Stage-boundary stamps of one hooked prove. Each hook call ends one
 *  span at its entry and starts the next at its exit, so the spans
 *  tile the prove span up to the time spent inside the hooks. */
struct StageStamps
{
    Clock::time_point in[4];
    Clock::time_point out[4];

    ProveStageHook
    hook()
    {
        return [this](ProveStage stage) {
            auto i = static_cast<size_t>(stage);
            in[i] = Clock::now();
            out[i] = Clock::now();
            return true;
        };
    }

    /** Record core.prove [start,end] and its five stage children. */
    void
    record(SpanLog &log, int64_t parent, uint64_t task,
           Clock::time_point start, Clock::time_point end) const
    {
        int64_t p = log.add("core.prove", start, end, parent, task);
        static const char *const kNames[5] = {
            "core.commit_a", "core.commit_bc", "core.fiat_shamir",
            "sumcheck.prove", "core.open"};
        Clock::time_point from = start;
        for (size_t i = 0; i < 4; ++i) {
            log.add(kNames[i], from, in[i], p, task);
            from = out[i];
        }
        log.add(kNames[4], from, end, p, task);
    }
};

std::vector<uint8_t>
serialize(const SnarkProof<Fr> &proof)
{
    return serializeProof(proof);
}

std::vector<uint8_t>
serialize(const HighDegreeProof<Fr> &proof)
{
    return serializeHighDegreeProof(proof);
}

/** Traced runs only: one direct hooked prove and its serialization,
 *  recorded as a direct.task span over the stage and serialize spans. */
template <typename SnarkT>
void
recordHookedProve(SpanLog &log, const SnarkT &snark,
                  const ConstraintTables<Fr> &tables, uint64_t id)
{
    StageStamps stamps;
    auto t0 = Clock::now();
    auto proof = snark.proveInterruptible(tables, {}, stamps.hook());
    auto t1 = Clock::now();
    serialize(*proof);
    auto t2 = Clock::now();
    int64_t root = log.add("direct.task", t0, t2, -1, id);
    stamps.record(log, root, id, t0, t1);
    log.add("core.serialize", t1, t2, root, id);
}

// ------------------------------------------------------------------
// Computed counts: from table sizes and the proof object, never timed.

struct Counts
{
    double rows_encoded = 0;
    double leaf_bytes = 0;
    double merkle_nodes = 0;
    double sumcheck_bytes = 0;
    double row_bytes = 0;
    double column_bytes = 0;
    double path_bytes = 0;
    size_t proofs = 0;

    template <typename Proof>
    void
    add(const TensorPcs<Fr> &pcs, const Proof &proof,
        const ProductSumcheckProof<Fr> &sc)
    {
        const double k = std::ldexp(1.0, static_cast<int>(pcs.rowVars()));
        const double m = std::ldexp(1.0, static_cast<int>(pcs.colVars()));
        const double fb = Fr::kNumBytes;
        // Three tables per proof, each encoded row by row into 2m
        // codeword columns whose k-entry leaves are hashed into a tree
        // with 2m - 1 internal nodes.
        rows_encoded += 3 * k;
        leaf_bytes += 3 * 2 * m * k * fb;
        merkle_nodes += 3 * (2 * m - 1);
        for (const auto &g : sc.rounds)
            sumcheck_bytes += static_cast<double>(g.size()) * fb;
        for (const PcsEvalProof<Fr> *open :
             {&proof.open_a, &proof.open_b, &proof.open_c}) {
            row_bytes += static_cast<double>(open->eval_row.size() +
                                             open->proximity_row.size()) *
                         fb;
            for (const auto &c : open->columns)
                column_bytes += static_cast<double>(c.size()) * fb;
            for (const auto &p : open->paths)
                path_bytes +=
                    static_cast<double>(p.siblings.size()) * 32.0 + 8.0;
        }
        ++proofs;
    }
};

/** Metrics of one run: name -> (value, unit). */
using Metrics = std::map<std::string, std::pair<double, std::string>>;

/** What one pass of a workload measured. */
struct PassResult
{
    size_t attempted = 0;
    size_t failed = 0;
    /** Tasks the pass ran (the traced replay runs the same count). */
    size_t tasks = 0;
    /** Timed work the trace-overhead ratio compares, host-normalised
     *  ms. */
    double work_ms = 0.0;
    /** End-to-end metrics, time metrics host-normalised. */
    Metrics end_to_end;
    /** The end-to-end time metrics as measured, for the side line. */
    Metrics raw;
    Metrics per_layer;
    /** Median host slowness over the pass (side line only). */
    double slowness = 1.0;

    /** Percentile @p p of @p t: normalised into end_to_end, as measured
     *  into raw. */
    void
    putTimed(const char *name, const Timed &t, double p, const char *unit)
    {
        end_to_end[name] = {percentile(t.norm, p), unit};
        raw[name] = {percentile(t.raw, p), unit};
    }

    /** Mean of @p t, likewise. */
    void
    putMean(const char *name, const Timed &t, const char *unit)
    {
        end_to_end[name] = {mean(t.norm), unit};
        raw[name] = {mean(t.raw), unit};
    }
};

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;
    std::string trace_out;
    std::string source_id = "unknown";
};

/** Per-layer metrics every workload derives the same way from spans. */
void
addSpanMetrics(const SpanLog &log, Metrics &m)
{
    auto agg = log.aggregate();
    auto self = [&](const char *name) {
        auto it = agg.find(name);
        return it == agg.end() || it->second.count == 0
                   ? 0.0
                   : it->second.self_ms /
                         static_cast<double>(it->second.count);
    };
    auto total = [&](const char *name) {
        auto it = agg.find(name);
        return it == agg.end() ? 0.0 : it->second.total_ms;
    };
    m["core.commit_a_ms"] = {self("core.commit_a"), "ms"};
    m["core.commit_bc_ms"] = {self("core.commit_bc"), "ms"};
    m["core.fiat_shamir_ms"] = {self("core.fiat_shamir"), "ms"};
    m["core.open_ms"] = {self("core.open"), "ms"};
    m["sumcheck.prove_ms"] = {self("sumcheck.prove"), "ms"};
    double prove = total("core.prove");
    auto share = [&](double part) { return prove > 0 ? part / prove : 0.0; };
    m["core.commit_share"] = {
        share(total("core.commit_a") + total("core.commit_bc")), "ratio"};
    m["core.open_share"] = {share(total("core.open")), "ratio"};
    m["sumcheck.share"] = {share(total("sumcheck.prove")), "ratio"};
    m["trace.hook_gap_ms"] = {self("core.prove"), "ms"};
    m["core.serialize_ms"] = {self("core.serialize"), "ms"};
    m["core.deserialize_ms"] = {self("core.deserialize"), "ms"};
    m["core.verify_only_ms"] = {self("core.verify"), "ms"};
}

void
addExecMetrics(const exec::ExecContext &exec, size_t proofs, Metrics &m)
{
    double n = proofs ? static_cast<double>(proofs) : 1.0;
    for (const char *region : {"encoder", "merkle", "sumcheck"}) {
        exec::RegionStats s = exec.stats(region);
        m[std::string("exec.") + region + "_wall_ms"] = {s.wall_ms / n,
                                                         "ms"};
        m[std::string("exec.") + region + "_busy_ms"] = {s.busy_ms / n,
                                                         "ms"};
    }
    m["exec.efficiency"] = {exec.parallelEfficiency(), "ratio"};
}

void
addCountMetrics(const Counts &c, Metrics &m)
{
    double n = c.proofs ? static_cast<double>(c.proofs) : 1.0;
    m["encoder.rows_encoded"] = {c.rows_encoded / n, "rows/proof"};
    m["hash.leaf_bytes"] = {c.leaf_bytes / n, "B/proof"};
    m["merkle.nodes"] = {c.merkle_nodes / n, "nodes/proof"};
    m["proof.sumcheck_bytes"] = {c.sumcheck_bytes / n, "B/proof"};
    m["proof.row_bytes"] = {c.row_bytes / n, "B/proof"};
    m["proof.column_bytes"] = {c.column_bytes / n, "B/proof"};
    m["proof.path_bytes"] = {c.path_bytes / n, "B/proof"};
}

// ------------------------------------------------------------------
// tc-large: intra-proof parallelism, one ExecContext of nproc threads.

class TcLarge
{
  public:
    static constexpr unsigned kVars = kTcVars;

    explicit TcLarge(const Options &opt)
        : src_(opt.seed), exec_(exec::ExecConfig{.threads = 0}),
          snark_(kTcVars, src_.pub_seed), verifier_(kTcVars, src_.pub_seed)
    {
        snark_.setExec(&exec_);
    }

    /** setup_s: prover construction (encoder graphs), in batches
     *  timed before each proof. */
    bool finishSetup() { return true; }
    const Timed &setup() const { return setup_; }

    /** Plain prove() of the first two task ids: the bit-identity
     *  reference, and the warm-up of pool, allocator and caches. */
    void
    makeReferences(Counts &counts)
    {
        for (uint64_t id = src_.first_id; id < src_.first_id + 2; ++id) {
            auto proof = snark_.prove(instance(id), {});
            counts.add(snark_.pcs(), proof, proof.constraint_sc);
            refs_[id] = serialize(proof);
        }
    }

    size_t threads() const { return exec_.threads(); }

    PassResult
    run(double seconds, size_t max_tasks, SpanLog *log)
    {
        PassResult r;
        exec_.resetStats();
        // The prover runs on the pool; construction, deserialize and
        // verify run on this thread alone.
        SpeedProbe probe(exec_.threads(), kProbePasses, 1);
        SpeedProbe probe1(1, kShortProbePasses, 3);
        struct Sample
        {
            Clock::time_point from, to;
            double setup_ms, prove_ms, verify_ms, turn_ms, loop_ms;
        };
        std::vector<Sample> samples;
        std::vector<double> bytes;
        // A timed pass runs for @p seconds and until kMinTailSamples
        // proofs are verified, but never past twice @p seconds.
        auto start = Clock::now();
        auto done = [&] {
            double s = msBetween(start, Clock::now()) / 1000.0;
            return s >= 2 * seconds ||
                   (s >= seconds && samples.size() >= kMinTailSamples);
        };
        for (uint64_t i = 0; i < max_tasks; ++i) {
            if (max_tasks == SIZE_MAX && done())
                break;
            probe.sample();
            probe1.sample();
            auto c0 = Clock::now();
            for (size_t k = 0; k < kTcSetupBatch; ++k) {
                Snark<Fr> fresh(kTcVars, src_.pub_seed);
                fresh.setExec(&exec_);
            }
            double setup_ms = msBetween(c0, Clock::now()) / kTcSetupBatch;

            auto l0 = Clock::now();
            uint64_t id = src_.first_id + i;
            auto tables = instance(id);
            ++r.attempted;
            ++r.tasks;
            StageStamps stamps;
            ProveStageHook hook = log ? stamps.hook() : ProveStageHook{};
            auto t0 = Clock::now();
            auto proof = snark_.proveInterruptible(tables, {}, hook);
            auto t1 = Clock::now();
            if (!proof) {
                ++r.failed;
                continue;
            }
            auto wire = serialize(*proof);
            auto t2 = Clock::now();
            auto decoded = deserializeProof<Fr>(wire);
            auto t3 = Clock::now();
            bool ok = decoded && verifier_.verify(*decoded, {});
            auto t4 = Clock::now();
            auto ref = refs_.find(id);
            if (ref != refs_.end() && ref->second != wire)
                ok = false;
            if (!ok) {
                ++r.failed;
                continue;
            }
            samples.push_back({c0, t4, setup_ms, msBetween(t0, t1),
                               msBetween(t2, t4), msBetween(t0, t4),
                               msBetween(l0, t4)});
            bytes.push_back(static_cast<double>(wire.size()));
            if (log) {
                int64_t root = log->add("task", t0, t4, -1, id);
                stamps.record(*log, root, id, t0, t1);
                log->add("core.serialize", t1, t2, root, id);
                log->add("core.deserialize", t2, t3, root, id);
                log->add("core.verify", t3, t4, root, id);
            }
        }
        probe.sample();
        probe1.sample();

        Timed prove, verify, turn, loop;
        for (const Sample &s : samples) {
            double slow = probe.slowness(s.from, s.to, 1000.0);
            double slow1 = probe1.slowness(s.from, s.to, 1000.0);
            setup_.add(s.setup_ms / 1000.0, slow1);
            prove.add(s.prove_ms, slow);
            verify.add(s.verify_ms, slow1);
            turn.add(s.turn_ms, slow);
            loop.add(s.loop_ms, slow);
        }
        r.work_ms = std::accumulate(loop.norm.begin(), loop.norm.end(), 0.0);
        double raw_ms = std::accumulate(loop.raw.begin(), loop.raw.end(), 0.0);
        // Verified proofs per second of the proving loop: instance
        // derivation, prove, serialize, deserialize and verify.
        double ok = static_cast<double>(samples.size());
        r.end_to_end["proofs_per_s"] = {
            r.work_ms > 0 ? 1000.0 * ok / r.work_ms : 0.0, "1/s"};
        r.raw["proofs_per_s"] = {raw_ms > 0 ? 1000.0 * ok / raw_ms : 0.0,
                                 "1/s"};
        r.putMean("prove_ms_mean", prove, "ms");
        r.putMean("verify_ms_mean", verify, "ms");
        r.putTimed("latency_p50_ms", turn, 0.5, "ms");
        r.putTimed("latency_p90_ms", turn, 0.9, "ms");
        r.end_to_end["proof_bytes"] = {mean(bytes), "B"};
        r.slowness = probe.slowness();
        if (log) {
            addSpanMetrics(*log, r.per_layer);
            addExecMetrics(exec_, samples.size(), r.per_layer);
        }
        return r;
    }

  private:
    ConstraintTables<Fr>
    instance(uint64_t id) const
    {
        Rng rng = taskInstanceRng(id, src_.pub_seed, kTcVars);
        return randomInstance(kTcVars, rng);
    }

    TaskSource src_;
    exec::ExecContext exec_;
    Snark<Fr> snark_;
    Snark<Fr> verifier_;
    std::map<uint64_t, std::vector<uint8_t>> refs_;
    Timed setup_;
};

// ------------------------------------------------------------------
// hdg-durable: DurableProofService submit -> processAll -> reopen
// (journal replay) -> verifyAll -> per-proof timed verify.

class HdgDurable
{
  public:
    static constexpr unsigned kVars = kHdgVars;

    explicit HdgDurable(const Options &opt)
        : src_(opt.seed), dir_(opt.work_dir),
          dev_(gpusim::DeviceSpec::gh200()),
          exec_(exec::ExecConfig{.threads = 0}),
          verifier_(kHdgVars, src_.pub_seed)
    {
        sys_.threads = exec_.threads();
    }

    size_t threads() const { return exec_.threads(); }

    /** Plain prove() of the first three task ids (bit-identity
     *  reference for the durable proofs). */
    void
    makeReferences(Counts &counts)
    {
        HighDegreeSnark<Fr> snark(kHdgVars, src_.pub_seed);
        snark.setExec(&exec_);
        for (uint64_t id = src_.first_id; id < src_.first_id + 3; ++id) {
            auto proof = snark.prove(instance(id), {});
            counts.add(snark.pcs(), proof, proof.gate_sc);
            refs_[id] = serialize(proof);
        }
    }

    /** setup_s: reopening the service on its journal (replay and
     *  recovery), in one batch per round. */
    bool finishSetup() { return true; }
    const Timed &setup() const { return setup_; }

    PassResult
    run(double seconds, size_t max_tasks, SpanLog *log)
    {
        PassResult r;
        // The service proves on its pool; reopen (journal replay),
        // deserialize and verify run on this thread alone.
        SpeedProbe probe(exec_.threads(), kProbePasses, 3);
        SpeedProbe probe1(1, kShortProbePasses, 3);
        // Everything a round measured; normalised by the probes around
        // the round once the pass is over.
        struct Round
        {
            Clock::time_point from, to;
            std::vector<double> cycle_ms, verify_ms;
            double per_task_ms = 0, reopen_ms = 0, work_ms = 0;
        };
        std::vector<Round> rounds;
        std::vector<double> bytes, submit_ms, recovery_ms, replayed;
        double fsyncs = 0, appended = 0;
        auto deadline =
            Clock::now() + std::chrono::duration<double>(seconds);
        uint64_t next = src_.first_id;
        for (size_t round = 0; r.tasks < max_tasks; ++round) {
            if (max_tasks == SIZE_MAX && round >= 2 &&
                Clock::now() >= deadline)
                break;
            probe.sample();
            probe1.sample();
            Round &rd = rounds.emplace_back();
            size_t n = std::min(kHdgRoundTasks, max_tasks - r.tasks);
            journal::JournalOptions jopt;
            jopt.dir = dir_ + "/round-" + std::to_string(round);
            // One segment per round: retirement would otherwise unlink
            // acked segments before the reopen can replay them.
            jopt.segment_bytes = size_t{1} << 30;
            std::filesystem::remove_all(jopt.dir);
            std::vector<uint64_t> ids;
            r.attempted += n;
            r.tasks += n;

            auto t_round = Clock::now();
            rd.from = t_round;
            int64_t root = log ? log->add("durable.round", t_round,
                                          t_round, -1, 0)
                               : -1;
            // Encode is the first stage hook of a task; consecutive
            // Encode stamps bound one task's turn in the service.
            std::vector<std::pair<uint64_t, Clock::time_point>> firsts;
            std::vector<std::array<Clock::time_point, 4>> stages;
            Clock::time_point p0, p1;
            {
                DurableProofService svc(dev_, jopt, sys_);
                for (size_t j = 0; j < n; ++j) {
                    DurableTaskSpec spec;
                    spec.id = next++;
                    spec.n_vars = kHdgVars;
                    spec.seed = src_.pub_seed;
                    spec.kind = ProtocolKind::HighDegreeGate;
                    auto s0 = Clock::now();
                    // A refused submit leaves its id unproved, so the
                    // per-id check below counts it.
                    svc.submit(spec);
                    auto s1 = Clock::now();
                    submit_ms.push_back(msBetween(s0, s1));
                    if (log)
                        log->add("journal.submit", s0, s1, root, spec.id);
                    ids.push_back(spec.id);
                }
                auto hook = [&](uint64_t id, ProveStage stage) {
                    auto now = Clock::now();
                    if (stage == ProveStage::Encode) {
                        firsts.emplace_back(id, now);
                        stages.emplace_back();
                    }
                    if (log && !stages.empty())
                        stages.back()[static_cast<size_t>(stage)] = now;
                    return true;
                };
                p0 = Clock::now();
                // Tasks it leaves unfinished are missing after the
                // reopen and fail the per-id check below.
                svc.processAll(hook);
                p1 = Clock::now();
                fsyncs += static_cast<double>(svc.journal().stats().fsyncs);
                appended += static_cast<double>(
                    svc.journal().stats().bytes_appended);
            }
            // A second probe per round, between processAll and the
            // reopen, halves the gap the window has to bridge.
            probe.sample();
            rd.per_task_ms = msBetween(p0, p1) / static_cast<double>(n);
            // Only full turns: the last task has no successor's Encode.
            for (size_t j = 0; j + 1 < firsts.size(); ++j)
                rd.cycle_ms.push_back(
                    msBetween(firsts[j].second, firsts[j + 1].second));

            // A batch of reopens of the same journal. A service retires
            // acked segments when it closes, so each reopen but the
            // last runs on an untimed copy of the directory; the last
            // one, on the round's own directory, stays open for the
            // checks.
            std::optional<DurableProofService> reopened;
            double reopen_total_ms = 0.0, last_reopen_ms = 0.0;
            Clock::time_point o0, o1;
            for (size_t k = 0; k < kHdgReopenBatch; ++k) {
                bool last = k + 1 == kHdgReopenBatch;
                journal::JournalOptions ropt = jopt;
                if (!last) {
                    ropt.dir = jopt.dir + "-copy";
                    std::filesystem::remove_all(ropt.dir);
                    std::filesystem::copy(
                        jopt.dir, ropt.dir,
                        std::filesystem::copy_options::recursive);
                }
                o0 = Clock::now();
                reopened.emplace(dev_, ropt, sys_);
                o1 = Clock::now();
                last_reopen_ms = msBetween(o0, o1);
                reopen_total_ms += last_reopen_ms;
                if (!last) {
                    reopened.reset();
                    std::filesystem::remove_all(ropt.dir);
                }
            }
            rd.reopen_ms = reopen_total_ms / kHdgReopenBatch;
            const RecoveryInfo &rec = reopened->recovery();
            recovery_ms.push_back(rec.recovery_wall_ms);
            replayed.push_back(static_cast<double>(rec.records_replayed));
            auto v0 = Clock::now();
            bool all_ok = reopened->verifyAll();
            auto v1 = Clock::now();
            // The round's work as a user runs it: submit, processAll,
            // one reopen and verifyAll.
            rd.work_ms = msBetween(t_round, p1) + last_reopen_ms +
                         msBetween(v0, v1);

            if (log) {
                int64_t pa =
                    log->add("durable.process_all", p0, p1, root, 0);
                for (size_t j = 0; j < firsts.size(); ++j) {
                    auto [id, start] = firsts[j];
                    auto end =
                        j + 1 < firsts.size() ? firsts[j + 1].second : p1;
                    int64_t t = log->add("durable.task", start, end, pa, id);
                    const auto &st = stages[j];
                    log->add("svc.commit_bc", st[0], st[1], t, id);
                    log->add("svc.fiat_shamir", st[1], st[2], t, id);
                    log->add("svc.sumcheck", st[2], st[3], t, id);
                }
                log->add("durable.reopen", o0, o1, root, 0);
                log->add("durable.verify_all", v0, v1, root, 0);
            }

            for (uint64_t id : ids) {
                auto it = reopened->proofs().find(id);
                if (it == reopened->proofs().end()) {
                    ++r.failed;
                    continue;
                }
                const auto &wire = it->second.proof;
                auto d0 = Clock::now();
                auto decoded = deserializeHighDegreeProof<Fr>(wire);
                auto d1 = Clock::now();
                bool ok = all_ok && decoded && verifier_.verify(*decoded, {});
                auto d2 = Clock::now();
                auto ref = refs_.find(id);
                if (ref != refs_.end() && ref->second != wire)
                    ok = false;
                if (!ok) {
                    ++r.failed;
                    continue;
                }
                rd.verify_ms.push_back(msBetween(d0, d2));
                bytes.push_back(static_cast<double>(wire.size()));
                if (log) {
                    int64_t v = log->add("proof.check", d0, d2, root, id);
                    log->add("core.deserialize", d0, d1, v, id);
                    log->add("core.verify", d1, d2, v, id);
                }
            }
            reopened.reset();
            rd.to = Clock::now();
            if (log) {
                log->finish(root, Clock::now());
                hookedProve(*log, ids.front());
            }
            std::filesystem::remove_all(jopt.dir);
        }
        probe.sample();
        probe1.sample();

        Timed per_task, cycle, verify, work;
        for (const Round &rd : rounds) {
            double slow = probe.slowness(rd.from, rd.to, 2500.0);
            double slow1 = probe1.slowness(rd.from, rd.to, 2500.0);
            per_task.add(rd.per_task_ms, slow);
            setup_.add(rd.reopen_ms / 1000.0, slow1);
            work.add(rd.work_ms, slow);
            for (double v : rd.cycle_ms)
                cycle.add(v, slow);
            for (double v : rd.verify_ms)
                verify.add(v, slow1);
        }
        r.work_ms = std::accumulate(work.norm.begin(), work.norm.end(), 0.0);
        double raw_ms = std::accumulate(work.raw.begin(), work.raw.end(), 0.0);
        double ok = static_cast<double>(verify.raw.size());
        r.end_to_end["proofs_per_s"] = {1000.0 * ok / r.work_ms, "1/s"};
        r.raw["proofs_per_s"] = {1000.0 * ok / raw_ms, "1/s"};
        r.putMean("prove_ms_mean", per_task, "ms");
        r.putMean("verify_ms_mean", verify, "ms");
        r.putTimed("latency_p50_ms", cycle, 0.5, "ms");
        r.putTimed("latency_p90_ms", cycle, 0.9, "ms");
        r.end_to_end["proof_bytes"] = {mean(bytes), "B"};
        r.slowness = probe.slowness();
        if (log) {
            Metrics &m = r.per_layer;
            addSpanMetrics(*log, m);
            addExecMetrics(exec_, hooked_, m);
            double tasks = static_cast<double>(r.tasks);
            m["journal.submit_ms_p50"] = {percentile(submit_ms, 0.5), "ms"};
            m["journal.fsyncs"] = {fsyncs / tasks, "count/task"};
            m["journal.bytes_appended"] = {appended / tasks, "B/task"};
            m["journal.records_replayed"] = {mean(replayed), "count/round"};
            m["journal.recovery_ms"] = {percentile(recovery_ms, 0.5), "ms"};
            m["durable.task_ms_mean"] = {mean(cycle.raw), "ms"};
        }
        return r;
    }

  private:
    ConstraintTables<Fr>
    instance(uint64_t id) const
    {
        Rng rng = taskInstanceRng(id, src_.pub_seed, kHdgVars);
        return highDegreeInstance<Fr>(kHdgVars, rng);
    }

    /** Traced runs only: one direct hooked prove per round, outside the
     *  round's timed work, for the core/sumcheck/exec split the service
     *  hides (its crash hook sees no prove start or end). */
    void
    hookedProve(SpanLog &log, uint64_t id)
    {
        if (hooked_ == 0)
            exec_.resetStats();
        HighDegreeSnark<Fr> snark(kHdgVars, src_.pub_seed);
        snark.setExec(&exec_);
        recordHookedProve(log, snark, instance(id), id);
        ++hooked_;
    }

    TaskSource src_;
    std::string dir_;
    gpusim::Device dev_;
    exec::ExecContext exec_;
    SystemOptions sys_;
    HighDegreeSnark<Fr> verifier_;
    std::map<uint64_t, std::vector<uint8_t>> refs_;
    Timed setup_;
    size_t hooked_ = 0;
};

// ------------------------------------------------------------------
// serve-mixed: in-process ProofServer + SnarkExecutor, open loop.

/** Times SnarkExecutor::execute from outside (the net-layer seam). */
class TimedExecutor : public net::ProofExecutor
{
  public:
    struct Call
    {
        uint64_t task_id;
        Clock::time_point start;
        Clock::time_point end;
    };

    std::vector<uint8_t>
    execute(const net::Submit &task) override
    {
        auto t0 = Clock::now();
        auto proof = inner_.execute(task);
        auto t1 = Clock::now();
        std::lock_guard<std::mutex> lock(mutex_);
        calls_.push_back({task.task_id, t0, t1});
        return proof;
    }

    std::vector<Call>
    take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return std::exchange(calls_, {});
    }

  private:
    net::SnarkExecutor inner_;
    std::mutex mutex_;
    std::vector<Call> calls_;
};

class ServeMixed
{
  public:
    static constexpr unsigned kVars = kServeVars;

    explicit ServeMixed(const Options &opt) : src_(opt.seed)
    {
        sopt_.workers = kServeWorkers;
        // The task kinds: a seeded 50/50 coin per task.
        Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 0x5e7e);
        kinds_.resize(kMaxServeTasks);
        for (auto &kind : kinds_)
            kind = rng.nextBounded(2) ? ProtocolKind::HighDegreeGate
                                      : ProtocolKind::TableCommit;
    }

    ~ServeMixed()
    {
        if (server_)
            server_->stop();
    }

    size_t threads() const { return kServeWorkers; }

    /** kServeSetupBatches timed batches of server starts, a probe
     *  before each; the last start serves the run. False when a server
     *  cannot start or a handshake fails. */
    bool
    start()
    {
        for (size_t b = 0; b < kServeSetupBatches; ++b) {
            setup_probe_.sample();
            auto from = Clock::now();
            double batch_ms = 0.0;
            for (size_t k = 0; k < kServeSetupBatch; ++k) {
                if (server_)
                    server_->stop();
                clients_.clear();
                server_.reset();
                auto t0 = Clock::now();
                server_ =
                    std::make_unique<net::ProofServer>(sopt_, executor_);
                if (!server_->start())
                    return false;
                clients_.resize(2);
                for (size_t c = 0; c < 2; ++c)
                    if (!clients_[c].connect(server_->port(),
                                             kServeTenants[c]))
                        return false;
                batch_ms += msBetween(t0, Clock::now());
            }
            setup_batches_.push_back(
                {from, Clock::now(), batch_ms / kServeSetupBatch});
        }
        return true;
    }

    /** setup_s: server construction + start + both tenants' handshakes,
     *  in batches before the load and as many after it. False when a
     *  start fails. */
    bool
    finishSetup()
    {
        if (!start())
            return false;
        for (const auto &[from, to, ms] : setup_batches_)
            setup_.add(ms / 1000.0,
                       setup_probe_.slowness(from, to, 1000.0));
        return true;
    }

    const Timed &setup() const { return setup_; }

    /** Plain prove() of the first two task ids of each kind, plus two
     *  closed-loop warm-up requests through the server. */
    bool
    makeReferences(Counts &counts)
    {
        size_t tc = 0, hdg = 0;
        for (size_t i = 0; i < kinds_.size() && (tc < 2 || hdg < 2); ++i) {
            uint64_t id = src_.first_id + i;
            Rng rng = taskInstanceRng(id, src_.pub_seed, kServeVars);
            if (kinds_[i] == ProtocolKind::HighDegreeGate) {
                if (hdg++ >= 2)
                    continue;
                HighDegreeSnark<Fr> snark(kServeVars, src_.pub_seed);
                auto p = snark.prove(
                    highDegreeInstance<Fr>(kServeVars, rng), {});
                counts.add(snark.pcs(), p, p.gate_sc);
                refs_[id] = serialize(p);
            } else {
                if (tc++ >= 2)
                    continue;
                Snark<Fr> snark(kServeVars, src_.pub_seed);
                auto p = snark.prove(randomInstance(kServeVars, rng), {});
                counts.add(snark.pcs(), p, p.constraint_sc);
                refs_[id] = serialize(p);
            }
        }
        for (size_t c = 0; c < 2; ++c) {
            net::Submit warm;
            warm.task_id = src_.first_id - 1 - c;
            warm.n_vars = kServeVars;
            warm.seed = src_.pub_seed;
            warm.kind = c ? ProtocolKind::HighDegreeGate
                          : ProtocolKind::TableCommit;
            auto res = clients_[c].roundTrip(warm);
            if (!res || res->status != net::Status::Ok)
                return false;
        }
        executor_.take();
        return true;
    }

    PassResult
    run(double seconds, size_t max_tasks, SpanLog *log)
    {
        PassResult r;
        size_t n = max_tasks != SIZE_MAX
                       ? max_tasks
                       : static_cast<size_t>(seconds * kServeRatePerS);
        n = std::min(n, kinds_.size());
        r.attempted = n;
        r.tasks = n;
        const double gap_ms = 1000.0 / kServeRatePerS;
        net::ServerStats before = server_->stats();

        std::vector<Clock::time_point> due(n), recv(n);
        std::vector<std::optional<net::Result>> results(n);
        std::vector<size_t> pending(2, 0);
        size_t outstanding = 0, sent = 0, received = 0;
        std::vector<double> lags;
        auto t0 = Clock::now() + std::chrono::milliseconds(5);
        for (size_t i = 0; i < n; ++i)
            due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  gap_ms * static_cast<double>(i)));
        auto give_up =
            due.empty() ? t0 : due.back() + std::chrono::seconds(60);

        // Client-side check of one received proof: deserialize, verify,
        // compare with the plain-prove reference where there is one.
        struct Check
        {
            bool ok = false;
            Clock::time_point d0, d1, d2;
        };
        std::vector<Check> checks(n);
        std::vector<size_t> unchecked;
        Snark<Fr> tc_verifier(kServeVars, src_.pub_seed);
        HighDegreeSnark<Fr> hdg_verifier(kServeVars, src_.pub_seed);
        auto check = [&](size_t i) {
            const auto &wire = results[i]->proof;
            Check &c = checks[i];
            c.d0 = Clock::now();
            if (kinds_[i] == ProtocolKind::HighDegreeGate) {
                auto p = deserializeHighDegreeProof<Fr>(wire);
                c.d1 = Clock::now();
                c.ok = p && hdg_verifier.verify(*p, {});
            } else {
                auto p = deserializeProof<Fr>(wire);
                c.d1 = Clock::now();
                c.ok = p && tc_verifier.verify(*p, {});
            }
            c.d2 = Clock::now();
            auto ref = refs_.find(src_.first_id + i);
            if (ref != refs_.end() && ref->second != wire)
                c.ok = false;
        };

        // One generator thread sends on schedule, polls both connections
        // in between, and probes the host or verifies received proofs
        // when the next send is far enough off; it never waits for a
        // reply to send.
        SpeedProbe probe(1, kShortProbePasses, 1);
        auto last_probe = Clock::now() - std::chrono::seconds(1);
        while (sent < n || outstanding > 0) {
            auto now = Clock::now();
            if (now > give_up)
                break;
            bool slack =
                sent == n || msBetween(now, due[sent]) >= kVerifySlackMs;
            if (sent < n && now >= due[sent]) {
                size_t c = sent % 2;
                net::Submit task;
                task.task_id = src_.first_id + sent;
                task.n_vars = kServeVars;
                task.seed = src_.pub_seed;
                task.kind = kinds_[sent];
                lags.push_back(msBetween(due[sent], now));
                if (clients_[c].send(task)) {
                    ++pending[c];
                    ++outstanding;
                }
                ++sent;
                continue;
            }
            if (slack && msBetween(last_probe, now) >= kLoadProbeGapMs) {
                probe.sample();
                last_probe = Clock::now();
                continue;
            }
            if (!unchecked.empty() && slack) {
                check(unchecked.back());
                unchecked.pop_back();
                continue;
            }
            if (outstanding == 0) {
                std::this_thread::sleep_until(due[sent]);
                continue;
            }
            double wait_ms =
                sent < n ? std::clamp(msBetween(now, due[sent]), 0.0, 1.0)
                         : 1.0;
            for (size_t c = 0; c < 2; ++c) {
                if (pending[c] == 0)
                    continue;
                auto msg = clients_[c].receive(wait_ms);
                if (!msg)
                    continue;
                auto *res = std::get_if<net::Result>(&*msg);
                if (!res || res->task_id < src_.first_id ||
                    res->task_id - src_.first_id >= n)
                    continue;
                size_t i = res->task_id - src_.first_id;
                if (results[i])
                    continue;
                recv[i] = Clock::now();
                results[i] = std::move(*res);
                if (results[i]->status == net::Status::Ok)
                    unchecked.push_back(i);
                --pending[c];
                --outstanding;
                ++received;
            }
        }
        for (size_t i : unchecked)
            check(i);

        std::map<uint64_t, TimedExecutor::Call> calls;
        for (const auto &call : executor_.take())
            calls[call.task_id] = call;
        net::ServerStats after = server_->stats();

        std::vector<double> exec_ms, wait_ms, bytes;
        Timed latency;
        // Per-kind samples: the two kinds' costs form two clusters.
        Timed kind_exec[2], kind_verify[2];
        double exec_raw_ms = 0.0, exec_norm_ms = 0.0;
        for (size_t i = 0; i < n; ++i) {
            uint64_t id = src_.first_id + i;
            auto call = calls.find(id);
            if (!results[i] || results[i]->status != net::Status::Ok ||
                !checks[i].ok || call == calls.end()) {
                ++r.failed;
                continue;
            }
            const auto &wire = results[i]->proof;
            bool hdg = kinds_[i] == ProtocolKind::HighDegreeGate;
            const Check &c = checks[i];
            double lat = msBetween(due[i], recv[i]);
            double ex = msBetween(call->second.start, call->second.end);
            double slow = probe.slowness(due[i], recv[i], 1000.0);
            double verify_slow = probe.slowness(c.d0, c.d2, 1000.0);
            latency.add(lat, slow);
            exec_ms.push_back(ex);
            wait_ms.push_back(lat - ex);
            kind_exec[hdg].add(ex, slow);
            kind_verify[hdg].add(msBetween(c.d0, c.d2), verify_slow);
            bytes.push_back(static_cast<double>(wire.size()));
            exec_raw_ms += ex;
            exec_norm_ms += ex / slow;
            r.work_ms += ex / slow + msBetween(c.d0, c.d2) / verify_slow;
            if (log) {
                int64_t root = log->add("net.request", due[i], recv[i], -1, id);
                log->add("net.execute", call->second.start,
                         call->second.end, root, id);
                int64_t v = log->add("proof.check", c.d0, c.d2, -1, id);
                log->add("core.deserialize", c.d0, c.d1, v, id);
                log->add("core.verify", c.d1, c.d2, v, id);
            }
        }
        double lag_max = percentile(lags, 1.0);
        double lag_q = percentile(lags, kLagQuantile);
        lag_max_ = std::max(lag_max_, lag_max);
        lag_q_ = std::max(lag_q_, lag_q);
        valid_ = valid_ && lag_q <= kMaxLagShare * gap_ms;

        size_t ok = latency.raw.size();
        Metrics &e = r.end_to_end;
        // Capacity: verified proofs per second the server's workers
        // sustain at the measured execute times. The delivered rate is
        // pinned to the schedule's 18/s while the server keeps up.
        auto capacity = [&](double exec_ms_total) {
            return exec_ms_total > 0 ? 1000.0 * kServeWorkers *
                                           static_cast<double>(ok) /
                                           exec_ms_total
                                     : 0.0;
        };
        e["proofs_per_s"] = {capacity(exec_norm_ms), "1/s"};
        r.raw["proofs_per_s"] = {capacity(exec_raw_ms), "1/s"};
        // Each kind weighs half, whatever the seed's mix.
        auto kindMean = [](const Timed (&t)[2], bool norm) {
            return (mean(norm ? t[0].norm : t[0].raw) +
                    mean(norm ? t[1].norm : t[1].raw)) /
                   2;
        };
        e["prove_ms_mean"] = {kindMean(kind_exec, true), "ms"};
        r.raw["prove_ms_mean"] = {kindMean(kind_exec, false), "ms"};
        e["verify_ms_mean"] = {kindMean(kind_verify, true), "ms"};
        r.raw["verify_ms_mean"] = {kindMean(kind_verify, false), "ms"};
        r.putTimed("latency_p50_ms", latency, 0.5, "ms");
        r.putTimed("latency_p90_ms", latency, 0.9, "ms");
        r.slowness = probe.slowness();
        e["proof_bytes"] = {mean(bytes), "B"};
        if (log) {
            Metrics &m = r.per_layer;
            for (size_t i = 0; i < 4; ++i)
                hookedProve(*log, i);
            addSpanMetrics(*log, m);
            addExecMetrics(hooked_exec_, hooked_, m);
            m["net.execute_ms_p50"] = {percentile(exec_ms, 0.5), "ms"};
            m["net.execute_ms_p90"] = {percentile(exec_ms, 0.9), "ms"};
            m["net.queue_wait_ms_p50"] = {percentile(wait_ms, 0.5), "ms"};
            m["net.queue_wait_ms_p90"] = {percentile(wait_ms, 0.9), "ms"};
            m["net.retries"] = {
                static_cast<double>(after.retries - before.retries),
                "count"};
            m["net.sheds"] = {static_cast<double>(after.sheds - before.sheds),
                              "count"};
            m["net.peak_queue_depth"] = {
                static_cast<double>(after.peak_queue_depth), "count"};
            m["net.bytes_tx"] = {
                ok ? static_cast<double>(after.bytes_tx - before.bytes_tx) /
                         static_cast<double>(ok)
                   : 0.0,
                "B/result"};
            m["loadgen.lag_ms_max"] = {lag_max, "ms"};
            m["loadgen.sent"] = {static_cast<double>(sent), "count"};
            m["loadgen.completed"] = {static_cast<double>(received),
                                      "count"};
        }
        return r;
    }

    double lagMaxMs() const { return lag_max_; }
    double lagQuantileMs() const { return lag_q_; }
    bool valid() const { return valid_; }

  private:
    /** Traced runs only: direct hooked proves (one thread, as the
     *  executor proves) for the core/sumcheck/exec split. */
    void
    hookedProve(SpanLog &log, size_t i)
    {
        if (hooked_ == 0)
            hooked_exec_.resetStats();
        uint64_t id = src_.first_id + i;
        Rng rng = taskInstanceRng(id, src_.pub_seed, kServeVars);
        if (kinds_[i] == ProtocolKind::HighDegreeGate) {
            HighDegreeSnark<Fr> snark(kServeVars, src_.pub_seed);
            snark.setExec(&hooked_exec_);
            recordHookedProve(log, snark,
                              highDegreeInstance<Fr>(kServeVars, rng), id);
        } else {
            Snark<Fr> snark(kServeVars, src_.pub_seed);
            snark.setExec(&hooked_exec_);
            recordHookedProve(log, snark, randomInstance(kServeVars, rng),
                              id);
        }
        ++hooked_;
    }

    TaskSource src_;
    net::ServerOptions sopt_;
    TimedExecutor executor_;
    std::unique_ptr<net::ProofServer> server_;
    std::vector<net::SyncClient> clients_;
    std::vector<ProtocolKind> kinds_;
    std::map<uint64_t, std::vector<uint8_t>> refs_;
    exec::ExecContext hooked_exec_{exec::ExecConfig{.threads = 1}};
    size_t hooked_ = 0;
    double lag_max_ = 0.0;
    double lag_q_ = 0.0;
    bool valid_ = true;
    /** Probes next to the set-up batches, on the workers' thread count. */
    SpeedProbe setup_probe_{kServeWorkers, kProbePasses, 1};
    /** Each set-up batch's interval and mean start time, ms. */
    std::vector<std::tuple<Clock::time_point, Clock::time_point, double>>
        setup_batches_;
    Timed setup_;
};

// ------------------------------------------------------------------

void
printMetrics(const Metrics &m)
{
    std::printf("{");
    bool first = true;
    for (const auto &[name, vu] : m) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), vu.first,
                    vu.second.c_str());
        first = false;
    }
    std::printf("}");
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string val = argv[i + 1];
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--seed")
            opt.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            opt.seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace")
            opt.trace = val == "1";
        else if (key == "--work-dir")
            opt.work_dir = val;
        else if (key == "--trace-out")
            opt.trace_out = val;
        else if (key == "--source-id")
            opt.source_id = val;
        else
            return false;
    }
    return !opt.workload.empty() && !opt.work_dir.empty() &&
           opt.seconds > 0;
}

/** Runs a set-up workload's passes: one untraced pass (--trace 0) or
 *  an untraced half plus a traced replay of its tasks (--trace 1), then
 *  prints the result object. */
template <typename W>
int
runWorkload(const Options &opt, W &w, Counts &counts, bool refs_ok)
{
    PassResult pass;
    double overhead = 0.0;
    std::optional<SpanLog> log;
    if (!opt.trace) {
        pass = w.run(opt.seconds, SIZE_MAX, nullptr);
    } else {
        PassResult plain = w.run(opt.seconds / 2, SIZE_MAX, nullptr);
        log.emplace(Clock::now());
        pass = w.run(0, plain.tasks, &*log);
        overhead = plain.work_ms > 0 ? pass.work_ms / plain.work_ms : 0.0;
        pass.attempted += plain.attempted;
        pass.failed += plain.failed;
        if (!opt.trace_out.empty() && !log->write(opt.trace_out))
            std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                         opt.trace_out.c_str());
    }
    bool setup_ok = w.finishSetup();
    double setup_s = percentile(w.setup().norm, 0.0);
    pass.raw["setup_s"] = {percentile(w.setup().raw, 0.0), "s"};

    // A failed reference or setup counts as one more failed operation.
    size_t attempted = pass.attempted + 1;
    size_t failed = pass.failed + (refs_ok && setup_ok ? 0 : 1);
    // One proof's witness: three 2^n-entry tables.
    double witness_bytes = 3.0 * std::ldexp(1.0, W::kVars) * Fr::kNumBytes;
    double rss = peakRssMb();

    Metrics out;
    if (!opt.trace) {
        out = pass.end_to_end;
        out["peak_rss_mb"] = {rss, "MB"};
        out["setup_s"] = {setup_s, "s"};
        out["ok_ratio"] = {static_cast<double>(attempted - failed) /
                               static_cast<double>(attempted),
                           "ratio"};
    } else {
        out = pass.per_layer;
        addCountMetrics(counts, out);
        out["mem.rss_over_witness"] = {rss * 1024.0 * 1024.0 / witness_bytes,
                                       "ratio"};
        out["trace.overhead_ratio"] = {overhead, "ratio"};
    }

    bool correct = failed == 0;
    if constexpr (std::is_same_v<W, ServeMixed>) {
        // A run whose generator fell behind its schedule is not scored.
        if (!w.valid()) {
            std::fprintf(stderr,
                         "e2e_bench: open-loop run invalid: generator p99 "
                         "lag %.3f ms over the %.3f ms limit\n",
                         w.lagQuantileMs(),
                         kMaxLagShare * 1000.0 / kServeRatePerS);
            correct = false;
        }
    }
    for (const auto &[name, vu] : out)
        if (!std::isfinite(vu.first)) {
            std::fprintf(stderr, "e2e_bench: metric %s is not finite\n",
                         name.c_str());
            correct = false;
        }

    if constexpr (std::is_same_v<W, ServeMixed>)
        std::printf("{\"loadgen\": {\"rate_per_s\": %.17g, \"lag_ms_max\": "
                    "%.17g, \"lag_ms_p99\": %.17g, \"lag_limit_ms\": %.17g, "
                    "\"valid\": %s}}\n",
                    kServeRatePerS, w.lagMaxMs(), w.lagQuantileMs(),
                    kMaxLagShare * 1000.0 / kServeRatePerS,
                    w.valid() ? "true" : "false");
    if (!opt.trace) {
        std::printf("{\"raw\": ");
        printMetrics(pass.raw);
        std::printf(", \"slowness\": %.17g}\n", pass.slowness);
    }
    std::printf("{\"computed\": {\"rows_encoded\": %.17g, \"leaf_bytes\": "
                "%.17g, \"merkle_nodes\": %.17g, \"sumcheck_bytes\": %.17g, "
                "\"row_bytes\": %.17g, \"column_bytes\": %.17g, "
                "\"path_bytes\": %.17g, \"proofs\": %zu}}\n",
                counts.rows_encoded, counts.leaf_bytes, counts.merkle_nodes,
                counts.sumcheck_bytes, counts.row_bytes, counts.column_bytes,
                counts.path_bytes, counts.proofs);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": ",
                correct ? "true" : "false", attempted, failed);
    printMetrics(out);
    std::printf("}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}

void
printStamp(const Options &opt, size_t threads)
{
    std::printf(
        "{\"env\": {\"field_backend\": \"%s\", \"wide_backend\": \"%s\", "
        "\"wide_ifma\": %s, \"threads\": %zu, \"nproc\": %u, "
        "\"ndebug\": %s, \"sanitizer\": %s, \"source\": \"%s\", "
        "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d}}\n",
        ff::backendName(ff::activeBackend()),
        ff::wideBackendName(ff::activeWideBackend()),
        ff::wideIfmaEnabled() ? "true" : "false", threads,
        std::thread::hardware_concurrency(), kNdebug ? "true" : "false",
        kSanitized ? "true" : "false", opt.source_id.c_str(),
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
        opt.trace ? 1 : 0);
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: e2e_bench --workload tc-large|hdg-durable|"
                     "serve-mixed --seed N --seconds S --trace 0|1 "
                     "--work-dir DIR [--trace-out FILE] [--source-id ID]\n");
        return 2;
    }
    if (!kNdebug || kSanitized) {
        std::fprintf(stderr, "e2e_bench: refusing to report numbers from a "
                             "debug or sanitizer build\n");
        return 3;
    }
    std::filesystem::create_directories(opt.work_dir);
    Counts counts;

    if (opt.workload == "tc-large") {
        TcLarge w(opt);
        printStamp(opt, w.threads());
        w.makeReferences(counts);
        return runWorkload(opt, w, counts, true);
    }
    if (opt.workload == "hdg-durable") {
        HdgDurable w(opt);
        printStamp(opt, w.threads());
        w.makeReferences(counts);
        return runWorkload(opt, w, counts, true);
    }
    if (opt.workload == "serve-mixed") {
        ServeMixed w(opt);
        printStamp(opt, w.threads());
        bool refs_ok = w.start() && w.makeReferences(counts);
        return runWorkload(opt, w, counts, refs_ok);
    }
    std::fprintf(stderr, "e2e_bench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
}
