// simbench: the benchmark program behind perfbench/run.py.
//
// Runs one workload of the simulator as repeated, identical repetitions in a
// single thread, or with --check as one unmeasured repetition. Each repetition builds its machine from the workload seed
// through the public APIs of src/, warms it up, runs a measured phase, and
// prints one JSON line: host seconds per phase, raw simulated counts, the
// simulated outcomes and a digest of all simulated output. run.py turns the
// lines into metrics and checks the digests.
//
// Host time is read only through HostTimer (bench/common.h) and never feeds
// a simulated quantity, so every repetition at one seed, traced or not,
// yields the same digest.
//
// With tracing on, spans are kept in memory around each call (or chunk of
// calls) simbench makes into a layer and written to --spans at exit.
// Spans inside src/ are out of scope: a layer's time here is the time of the
// benchmark's calls into it, so work one layer does for another (the slice
// hash inside the hierarchy or the KVS gather) is charged to the caller.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "src/cache/hierarchy.h"
#include "src/hash/presets.h"
#include "src/kvs/kvs.h"
#include "src/mem/hugepage.h"
#include "src/mem/physical_memory.h"
#include "src/netio/cache_director.h"
#include "src/netio/mempool.h"
#include "src/netio/nic.h"
#include "src/nfv/chain.h"
#include "src/nfv/elements.h"
#include "src/nfv/runtime.h"
#include "src/sim/machine.h"
#include "src/sim/rng.h"
#include "src/slice/buffers.h"
#include "src/slice/placement.h"
#include "src/stats/summary.h"
#include "src/stats/zipf.h"
#include "src/trace/latency_recorder.h"
#include "src/trace/traffic_gen.h"

namespace cachedir {
namespace {

// ---- Span tracer --------------------------------------------------------------
//
// The prefix of a span name, up to the first '.', is the layer it is charged
// to; "bench" is simbench itself.
enum class Name : std::uint8_t {
  kRep,
  kSetup,
  kWarmup,
  kMeasure,
  kChunk,
  kHashSetup,
  kCacheSetup,
  kMemSetup,
  kSliceSetup,
  kKvsSetup,
  kNetioSetup,
  kNfvSetup,
  kTraceSetup,
  kStatsSetup,
  kSimSetup,
  kTraceGenerate,
  kNfvRun,
  kStatsSummarize,
  kCacheReadRange,
  kCacheWriteRange,
  kStatsZipf,
  kSimRng,
  kKvsGet,
  kKvsSet,
  kCount,
};

constexpr std::array<const char*, static_cast<std::size_t>(Name::kCount)> kNames = {
    "bench.rep",        "bench.setup",       "bench.warmup",     "bench.measure",
    "bench.chunk",      "hash.setup",        "cache.setup",      "mem.setup",
    "slice.setup",      "kvs.setup",         "netio.setup",      "nfv.setup",
    "trace.setup",      "stats.setup",       "sim.setup",        "trace.generate",
    "nfv.run",          "stats.summarize",   "cache.read_range", "cache.write_range",
    "stats.zipf",       "sim.rng",           "kvs.get",          "kvs.set",
};

// Spans are recorded one by one. Per-call spans (one KVS request, one gather
// batch) are too many to keep, so they are folded into one leaf record per
// (enclosing span, name) that keeps the call count, summed seconds and items.
class Tracer {
 public:
  static constexpr std::size_t kNone = ~std::size_t{0};

  void set_enabled(bool on) { enabled_ = on; }

  // Host seconds since the tracer was made; 0 while disabled.
  double Now() const { return enabled_ ? epoch_.Seconds() : 0.0; }

  // Opens a span under the innermost open one; returns a handle for Close.
  std::size_t Open(Name name, std::uint64_t id) {
    if (!enabled_) {
      return kNone;
    }
    const std::size_t parent = open_.empty() ? kNone : open_.back().span;
    spans_.push_back(SpanRecord{name, parent, id, epoch_.Seconds(), 0.0, 0});
    open_.push_back(OpenSpan{spans_.size() - 1, leaves_.size()});
    return spans_.size() - 1;
  }

  void Close(std::size_t span, std::uint64_t items = 0) {
    if (span == kNone) {
      return;
    }
    spans_[span].end_s = epoch_.Seconds();
    spans_[span].items = items;
    open_.pop_back();
  }

  // Records one call that started at `start_s` (from Now()) and ends now.
  void Leaf(Name name, double start_s, std::uint64_t items) {
    if (!enabled_) {
      return;
    }
    const double seconds = epoch_.Seconds() - start_s;
    const OpenSpan top = open_.empty() ? OpenSpan{kNone, 0} : open_.back();
    // The leaves of the innermost open span were all made after it opened.
    for (std::size_t i = top.first_leaf; i < leaves_.size(); ++i) {
      LeafRecord& leaf = leaves_[i];
      if (leaf.parent == top.span && leaf.name == name) {
        ++leaf.calls;
        leaf.seconds += seconds;
        leaf.items += items;
        return;
      }
    }
    leaves_.push_back(LeafRecord{name, top.span, 1, seconds, items});
  }

  // One line per span and per folded leaf; run.py derives the per-layer
  // numbers from this file.
  //   span <index> <parent|-1> <name> <id> <start_ns> <end_ns> <items>
  //   leaf <parent|-1> <name> <calls> <seconds_ns> <items>
  bool Write(const char* path) const {
    FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
      return false;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(out, "span %zu %lld %s %" PRIu64 " %.0f %.0f %" PRIu64 "\n", i,
                   s.parent == kNone ? -1LL : static_cast<long long>(s.parent), NameOf(s.name),
                   s.id, s.start_s * 1e9, s.end_s * 1e9, s.items);
    }
    for (const LeafRecord& l : leaves_) {
      std::fprintf(out, "leaf %lld %s %" PRIu64 " %.0f %" PRIu64 "\n",
                   l.parent == kNone ? -1LL : static_cast<long long>(l.parent), NameOf(l.name),
                   l.calls, l.seconds * 1e9, l.items);
    }
    return std::fclose(out) == 0;
  }

 private:
  struct SpanRecord {
    Name name;
    std::size_t parent;
    std::uint64_t id;
    double start_s;
    double end_s;
    std::uint64_t items;
  };
  struct LeafRecord {
    Name name;
    std::size_t parent;
    std::uint64_t calls;
    double seconds;
    std::uint64_t items;
  };
  struct OpenSpan {
    std::size_t span;
    std::size_t first_leaf;  // leaves_.size() when the span opened
  };

  static const char* NameOf(Name name) { return kNames[static_cast<std::size_t>(name)]; }

  bool enabled_ = false;
  HostTimer epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<OpenSpan> open_;
  std::vector<LeafRecord> leaves_;
};

// ---- Repetition result ----------------------------------------------------------

// Everything one repetition reports. Counts are deltas over the measured
// phase unless named otherwise.
struct RepResult {
  double setup_s = 0;
  double warmup_s = 0;
  double measure_s = 0;
  std::uint64_t run_lines = 0;  // core accesses + DMA lines, warm-up and measure
  std::uint64_t ops = 0;        // packets, accesses or requests measured
  HierarchyStats delta;
  HierarchyStats total;                  // at the end of the repetition
  std::uint64_t directory_entries = 0;  // LineDirectory::size() at the end
  std::vector<std::uint64_t> slice_lookups;
  std::uint64_t delivered = 0;
  std::uint64_t drops = 0;
  std::uint64_t gets = 0;
  std::uint64_t sets = 0;
  std::uint64_t sim_cycles = 0;  // simulated cycles of the measured work
  double nfv_p50_us = 0;
  double nfv_p99_us = 0;
  double nfv_gbps = 0;
  double kvs_mtps = 0;
  double kvs_cycles_per_req = 0;
  double random_mops = 0;
  std::string check_error;      // empty when the repetition's own checks passed
  double calib_s = 0;           // the calibration loop's host seconds just before it
  std::size_t calib_bytes = 0;  // the calibration loop's resident memory
};

std::uint64_t Lines(const HierarchyStats& s) {
  return s.l1_hits + s.l1_misses + s.dma_line_writes + s.dma_line_reads;
}

HierarchyStats Minus(const HierarchyStats& a, const HierarchyStats& b) {
  HierarchyStats d;
  d.l1_hits = a.l1_hits - b.l1_hits;
  d.l1_misses = a.l1_misses - b.l1_misses;
  d.l2_hits = a.l2_hits - b.l2_hits;
  d.l2_misses = a.l2_misses - b.l2_misses;
  d.llc_hits = a.llc_hits - b.llc_hits;
  d.llc_misses = a.llc_misses - b.llc_misses;
  d.dirty_writebacks = a.dirty_writebacks - b.dirty_writebacks;
  d.dma_line_writes = a.dma_line_writes - b.dma_line_writes;
  d.dma_line_reads = a.dma_line_reads - b.dma_line_reads;
  d.prefetches_issued = a.prefetches_issued - b.prefetches_issued;
  d.prefetch_hits = a.prefetch_hits - b.prefetch_hits;
  d.remote_forwards = a.remote_forwards - b.remote_forwards;
  d.invalidations_sent = a.invalidations_sent - b.invalidations_sent;
  d.upgrades = a.upgrades - b.upgrades;
  return d;
}

// Brackets the measured phase: hierarchy and CBo counters are read before
// and after it.
class MeasuredPhase {
 public:
  explicit MeasuredPhase(const MemoryHierarchy& hierarchy)
      : hierarchy_(hierarchy),
        before_(hierarchy.stats()),
        cbo_before_(hierarchy.llc().cbo().Snapshot()) {}

  void Finish(RepResult& r) const {
    r.total = hierarchy_.stats();
    r.delta = Minus(r.total, before_);
    r.slice_lookups = CboCounterBank::LookupDelta(cbo_before_, hierarchy_.llc().cbo().Snapshot());
    r.directory_entries = hierarchy_.directory().size();
  }

 private:
  const MemoryHierarchy& hierarchy_;
  HierarchyStats before_;
  std::vector<CboEvents> cbo_before_;
};

// ---- Workload sizes ---------------------------------------------------------------

// Short sizes serve the benchmark's own smoke tests; they have their own
// golden digests.
struct Sizes {
  // nfv_chain
  std::size_t block_packets;
  std::size_t warmup_blocks;
  std::size_t measure_blocks;
  // llc_miss: accesses per core
  std::size_t warmup_per_core;
  std::size_t measure_per_core;
  // kvs_zipf
  std::size_t kvs_values;
  std::size_t kvs_warmup;
  std::size_t kvs_measure;
};

constexpr Sizes kFullSizes{4096, 12, 60, 96 * 1024, 224 * 1024, std::size_t{1} << 22,
                           1'000'000, 2'000'000};
constexpr Sizes kShortSizes{1024, 4, 16, 8 * 1024, 16 * 1024, std::size_t{1} << 18,
                            64 * 1024, 128 * 1024};

// ---- nfv_chain: Fig. 14's CacheDirector arm as one long run ------------------------

RepResult RunNfvChain(const Sizes& sizes, std::uint64_t seed, Tracer& tr) {
  RepResult r;
  HostTimer clock;
  const std::size_t setup = tr.Open(Name::kSetup, 0);

  std::size_t s = tr.Open(Name::kHashSetup, 0);
  const std::shared_ptr<const SliceHash> hash = HaswellSliceHash();
  tr.Close(s);

  s = tr.Open(Name::kCacheSetup, 0);
  MemoryHierarchy hierarchy(HaswellXeonE52667V3(), hash, seed);
  tr.Close(s);

  s = tr.Open(Name::kSliceSetup, 0);
  SlicePlacement placement(hierarchy);
  tr.Close(s);

  s = tr.Open(Name::kMemSetup, 0);
  PhysicalMemory memory;
  HugepageAllocator backing;
  tr.Close(s);

  s = tr.Open(Name::kNetioSetup, 0);
  CacheDirector director(hash, placement, /*enabled=*/true);
  Mempool pool(backing, 8192, director);
  SimNic::Config nic_config;
  nic_config.num_queues = 8;
  nic_config.steering = NicSteering::kFlowDirector;
  SimNic nic(nic_config, hierarchy, memory, pool, director);
  tr.Close(s);

  s = tr.Open(Name::kNfvSetup, 0);
  ServiceChain chain;
  IpRouter::Params router;
  router.num_routes = 3120;
  router.hw_offloaded = true;
  router.seed = seed;
  chain.Append(std::make_unique<IpRouter>(hierarchy, memory, backing, router));
  chain.Append(std::make_unique<Napt>(hierarchy, memory, backing, Napt::Params{}));
  chain.Append(std::make_unique<LoadBalancer>(hierarchy, memory, backing, LoadBalancer::Params{}));
  NfvRuntime runtime(NfvRuntime::Config{}, hierarchy, nic, chain);
  tr.Close(s);

  s = tr.Open(Name::kTraceSetup, 0);
  TrafficConfig traffic;
  traffic.size_mode = TrafficConfig::SizeMode::kCampusMix;
  traffic.rate_mode = TrafficConfig::RateMode::kGbps;
  traffic.rate_gbps = 100.0;
  traffic.seed = seed;
  TrafficGenerator gen(traffic);
  std::vector<WirePacket> block(sizes.block_packets);
  LatencyRecorder recorder;
  recorder.Reserve(sizes.block_packets * sizes.measure_blocks);
  tr.Close(s);
  tr.Close(setup);
  r.setup_s = clock.Seconds();

  const HierarchyStats start = hierarchy.stats();
  std::uint64_t block_id = 0;
  auto run_blocks = [&](std::size_t blocks, LatencyRecorder* rec) {
    for (std::size_t b = 0; b < blocks; ++b, ++block_id) {
      const std::size_t chunk = tr.Open(Name::kChunk, block_id);
      double t0 = tr.Now();
      gen.GenerateBlock(block);
      tr.Leaf(Name::kTraceGenerate, t0, block.size());
      t0 = tr.Now();
      runtime.Run(block, rec);
      tr.Leaf(Name::kNfvRun, t0, block.size());
      tr.Close(chunk, block.size());
    }
  };

  clock.Restart();
  std::size_t phase = tr.Open(Name::kWarmup, 0);
  run_blocks(sizes.warmup_blocks, nullptr);
  tr.Close(phase);
  r.warmup_s = clock.Seconds();

  clock.Restart();
  phase = tr.Open(Name::kMeasure, 0);
  const MeasuredPhase measured(hierarchy);
  const Nanoseconds measure_start_ns = runtime.CompletionTimeNs();
  run_blocks(sizes.measure_blocks, &recorder);
  const double t0 = tr.Now();
  const PercentileRow row = SummarizePercentiles(recorder.latencies_us());
  r.nfv_p50_us = recorder.latencies_us().Median();
  tr.Leaf(Name::kStatsSummarize, t0, recorder.latencies_us().size());
  r.nfv_p99_us = row.p99;
  r.nfv_gbps = recorder.ThroughputGbps();
  measured.Finish(r);
  tr.Close(phase);
  r.measure_s = clock.Seconds();

  r.ops = sizes.block_packets * sizes.measure_blocks;
  r.run_lines = Lines(hierarchy.stats()) - Lines(start);
  r.delivered = recorder.delivered();
  r.drops = recorder.drops();
  r.sim_cycles = hierarchy.spec().frequency.ToCycles(runtime.CompletionTimeNs() - measure_start_ns);
  if (r.delivered + r.drops != r.ops) {
    r.check_error = "delivered + dropped packets != packets offered";
  }
  return r;
}

// ---- llc_miss: Fig. 7's 32 MB row, made long ------------------------------------

constexpr std::size_t kMissCores = 8;
constexpr std::size_t kMissArrayBytes = std::size_t{32} << 20;
constexpr std::size_t kMissBatchLines = 64;
constexpr std::size_t kMissChunkRounds = 16;  // rounds (one batch per core) per span
constexpr double kMissWriteFraction = 0.25;

RepResult RunLlcMiss(const Sizes& sizes, std::uint64_t seed, Tracer& tr) {
  RepResult r;
  HostTimer clock;
  const std::size_t setup = tr.Open(Name::kSetup, 0);

  std::size_t s = tr.Open(Name::kHashSetup, 0);
  std::shared_ptr<const SliceHash> hash = HaswellSliceHash();
  tr.Close(s);

  s = tr.Open(Name::kCacheSetup, 0);
  MemoryHierarchy hierarchy(HaswellXeonE52667V3(), std::move(hash), seed);
  tr.Close(s);

  s = tr.Open(Name::kMemSetup, 0);
  HugepageAllocator backing;
  std::vector<PhysAddr> bases;
  for (std::size_t c = 0; c < kMissCores; ++c) {
    bases.push_back(backing.Allocate(kMissArrayBytes, PageSize::k2M).pa);
  }
  tr.Close(s);

  s = tr.Open(Name::kSliceSetup, 0);
  std::vector<ContiguousBuffer> arrays;
  arrays.reserve(kMissCores);
  for (const PhysAddr base : bases) {
    arrays.emplace_back(base, kMissArrayBytes);
  }
  tr.Close(s);

  s = tr.Open(Name::kSimSetup, 0);
  std::vector<Rng> rngs;
  rngs.reserve(kMissCores);
  for (std::size_t c = 0; c < kMissCores; ++c) {
    rngs.emplace_back(seed + 31 * c);
  }
  tr.Close(s);
  tr.Close(setup);
  r.setup_s = clock.Seconds();

  const std::size_t lines_per_array = kMissArrayBytes / kCacheLineSize;
  std::vector<Cycles> core_cycles(kMissCores, 0);
  std::array<PhysAddr, kMissBatchLines> gather;
  std::uint64_t chunk_id = 0;
  // Each round issues one 64-line gather batch per core, cores interleaved;
  // a batch is a write batch with probability kMissWriteFraction.
  auto run_rounds = [&](std::size_t per_core) {
    const std::size_t rounds = per_core / kMissBatchLines;
    for (std::size_t first = 0; first < rounds; first += kMissChunkRounds, ++chunk_id) {
      const std::size_t chunk = tr.Open(Name::kChunk, chunk_id);
      const std::size_t last = std::min(rounds, first + kMissChunkRounds);
      for (std::size_t round = first; round < last; ++round) {
        for (std::size_t c = 0; c < kMissCores; ++c) {
          Rng& rng = rngs[c];
          const bool write = rng.Bernoulli(kMissWriteFraction);
          for (PhysAddr& pa : gather) {
            pa = arrays[c].PaForOffset(rng.UniformIndex(lines_per_array) * kCacheLineSize);
          }
          AccessBatch batch;
          batch.gather = gather;
          const CoreId core = static_cast<CoreId>(c);
          const double t0 = tr.Now();
          if (write) {
            core_cycles[c] += hierarchy.WriteRange(core, batch).cycles;
            tr.Leaf(Name::kCacheWriteRange, t0, kMissBatchLines);
          } else {
            core_cycles[c] += hierarchy.ReadRange(core, batch).cycles;
            tr.Leaf(Name::kCacheReadRange, t0, kMissBatchLines);
          }
        }
      }
      tr.Close(chunk, (last - first) * kMissCores * kMissBatchLines);
    }
  };

  const HierarchyStats start = hierarchy.stats();
  clock.Restart();
  std::size_t phase = tr.Open(Name::kWarmup, 0);
  run_rounds(sizes.warmup_per_core);
  tr.Close(phase);
  r.warmup_s = clock.Seconds();

  std::fill(core_cycles.begin(), core_cycles.end(), 0);
  clock.Restart();
  phase = tr.Open(Name::kMeasure, 0);
  const MeasuredPhase measured(hierarchy);
  run_rounds(sizes.measure_per_core);
  measured.Finish(r);
  tr.Close(phase);
  r.measure_s = clock.Seconds();

  const std::size_t per_core = sizes.measure_per_core / kMissBatchLines * kMissBatchLines;
  r.ops = per_core * kMissCores;
  r.run_lines = Lines(hierarchy.stats()) - Lines(start);
  r.sim_cycles = *std::max_element(core_cycles.begin(), core_cycles.end());
  // Fig. 7's metric: aggregate operations per simulated second, the slowest
  // core setting the time.
  const double sim_seconds = hierarchy.spec().frequency.ToNanoseconds(r.sim_cycles) / 1e9;
  r.random_mops = static_cast<double>(r.ops) / sim_seconds / 1e6;
  if (r.delta.l1_hits + r.delta.l1_misses != r.ops) {
    r.check_error = "L1 hits + misses != accesses issued";
  }
  return r;
}

// ---- kvs_zipf: Fig. 8's slice-aware KVS on the Skylake model ---------------------

constexpr std::size_t kKvsChunk = 4096;  // requests generated (and spanned) together
constexpr double kKvsTheta = 0.99;
constexpr double kKvsGetFraction = 0.5;

RepResult RunKvsZipf(const Sizes& sizes, std::uint64_t seed, Tracer& tr) {
  RepResult r;
  HostTimer clock;
  const std::size_t setup = tr.Open(Name::kSetup, 0);

  std::size_t s = tr.Open(Name::kHashSetup, 0);
  std::shared_ptr<const SliceHash> hash = SkylakeSliceHash();
  tr.Close(s);

  s = tr.Open(Name::kCacheSetup, 0);
  MemoryHierarchy hierarchy(SkylakeXeonGold6134(), std::move(hash), seed);
  tr.Close(s);

  s = tr.Open(Name::kSliceSetup, 0);
  const SlicePlacement placement(hierarchy);
  const CoreId core = 0;
  EmulatedKvs::Config config;
  config.num_values = sizes.kvs_values;
  config.slice_aware = true;
  config.target_slice = placement.ClosestSlice(core);
  tr.Close(s);

  s = tr.Open(Name::kMemSetup, 0);
  HugepageAllocator backing;
  tr.Close(s);

  s = tr.Open(Name::kKvsSetup, 0);
  EmulatedKvs kvs(hierarchy, backing, config);
  tr.Close(s);

  s = tr.Open(Name::kStatsSetup, 0);
  ZipfGenerator keys(sizes.kvs_values, kKvsTheta, seed);
  tr.Close(s);

  s = tr.Open(Name::kSimSetup, 0);
  Rng op_rng(seed + 0x9E3779B97F4A7C15ull);
  tr.Close(s);
  std::array<std::uint64_t, kKvsChunk> key_block;
  std::array<bool, kKvsChunk> get_block;
  tr.Close(setup);
  r.setup_s = clock.Seconds();

  std::uint64_t chunk_id = 0;
  auto serve = [&](std::size_t requests) {
    Cycles cycles = 0;
    for (std::size_t done = 0; done < requests; done += kKvsChunk, ++chunk_id) {
      const std::size_t n = std::min(kKvsChunk, requests - done);
      const std::size_t chunk = tr.Open(Name::kChunk, chunk_id);
      double t0 = tr.Now();
      for (std::size_t i = 0; i < n; ++i) {
        key_block[i] = keys.Next();
      }
      tr.Leaf(Name::kStatsZipf, t0, n);
      t0 = tr.Now();
      for (std::size_t i = 0; i < n; ++i) {
        get_block[i] = op_rng.Bernoulli(kKvsGetFraction);
      }
      tr.Leaf(Name::kSimRng, t0, n);
      for (std::size_t i = 0; i < n; ++i) {
        t0 = tr.Now();
        if (get_block[i]) {
          cycles += kvs.Get(core, key_block[i]);
          tr.Leaf(Name::kKvsGet, t0, 1);
          ++r.gets;
        } else {
          cycles += kvs.Set(core, key_block[i]);
          tr.Leaf(Name::kKvsSet, t0, 1);
          ++r.sets;
        }
      }
      tr.Close(chunk, n);
    }
    return cycles;
  };

  const HierarchyStats start = hierarchy.stats();
  clock.Restart();
  std::size_t phase = tr.Open(Name::kWarmup, 0);
  (void)serve(sizes.kvs_warmup);
  tr.Close(phase);
  r.warmup_s = clock.Seconds();

  r.gets = 0;
  r.sets = 0;
  clock.Restart();
  phase = tr.Open(Name::kMeasure, 0);
  const MeasuredPhase measured(hierarchy);
  r.sim_cycles = serve(sizes.kvs_measure);
  measured.Finish(r);
  tr.Close(phase);
  r.measure_s = clock.Seconds();

  r.ops = sizes.kvs_measure;
  r.run_lines = Lines(hierarchy.stats()) - Lines(start);
  // KvsServer's metric: requests per simulated second at the core clock.
  r.kvs_cycles_per_req = static_cast<double>(r.sim_cycles) / static_cast<double>(r.ops);
  r.kvs_mtps = hierarchy.spec().frequency.ghz() * 1e3 / r.kvs_cycles_per_req;
  if (r.gets + r.sets != r.ops ||
      r.delta.l1_hits + r.delta.l1_misses != r.ops * kvs.lines_per_value()) {
    r.check_error = "requests or L1 accesses do not add up";
  }
  return r;
}

// ---- Digest and output ------------------------------------------------------------

class Digest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ull;
    }
  }
  void Add(double v) { Add(std::bit_cast<std::uint64_t>(v)); }
  void Add(const HierarchyStats& s) {
    for (const std::uint64_t v :
         {s.l1_hits, s.l1_misses, s.l2_hits, s.l2_misses, s.llc_hits, s.llc_misses,
          s.dirty_writebacks, s.dma_line_writes, s.dma_line_reads, s.prefetches_issued,
          s.prefetch_hits, s.remote_forwards, s.invalidations_sent, s.upgrades}) {
      Add(v);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;  // FNV-1a 64
};

// Digest of everything simulated a repetition reports; host time excluded.
std::uint64_t SimDigest(const RepResult& r) {
  Digest d;
  d.Add(r.total);
  d.Add(r.delta);
  for (const std::uint64_t v : {r.run_lines, r.ops, r.directory_entries, r.delivered, r.drops,
                                r.gets, r.sets, r.sim_cycles}) {
    d.Add(v);
  }
  for (const std::uint64_t v : r.slice_lookups) {
    d.Add(v);
  }
  for (const double v : {r.nfv_p50_us, r.nfv_p99_us, r.nfv_gbps, r.kvs_mtps,
                         r.kvs_cycles_per_req, r.random_mops}) {
    d.Add(v);
  }
  return d.value();
}

void PrintRep(std::size_t rep, std::uint64_t seed, bool check, bool traced, const RepResult& r) {
  const HierarchyStats& s = r.delta;
  std::printf("{\"rep\": %zu, \"seed\": %" PRIu64 ", \"check\": %s, \"traced\": %s, "
              "\"digest\": \"%016" PRIx64 "\", \"error\": \"%s\", "
              "\"setup_s\": %.9f, \"warmup_s\": %.9f, \"measure_s\": %.9f, "
              "\"calib_s\": %.9f, \"calib_bytes\": %zu, \"run_lines\": %" PRIu64
              ", \"ops\": %" PRIu64 ", ",
              rep, seed, check ? "true" : "false", traced ? "true" : "false", SimDigest(r),
              r.check_error.c_str(), r.setup_s, r.warmup_s, r.measure_s, r.calib_s, r.calib_bytes,
              r.run_lines, r.ops);
  std::printf("\"counts\": {\"l1_hits\": %" PRIu64 ", \"l1_misses\": %" PRIu64
              ", \"l2_hits\": %" PRIu64 ", \"l2_misses\": %" PRIu64 ", \"llc_hits\": %" PRIu64
              ", \"llc_misses\": %" PRIu64 ", \"dirty_writebacks\": %" PRIu64
              ", \"dma_line_writes\": %" PRIu64 ", \"dma_line_reads\": %" PRIu64
              ", \"remote_forwards\": %" PRIu64 ", \"invalidations_sent\": %" PRIu64
              ", \"directory_entries\": %" PRIu64 ", \"delivered\": %" PRIu64
              ", \"drops\": %" PRIu64 ", \"gets\": %" PRIu64 ", \"sets\": %" PRIu64
              ", \"sim_cycles\": %" PRIu64 ", \"slice_lookups\": [",
              s.l1_hits, s.l1_misses, s.l2_hits, s.l2_misses, s.llc_hits, s.llc_misses,
              s.dirty_writebacks, s.dma_line_writes, s.dma_line_reads, s.remote_forwards,
              s.invalidations_sent, r.directory_entries, r.delivered, r.drops, r.gets, r.sets,
              r.sim_cycles);
  for (std::size_t i = 0; i < r.slice_lookups.size(); ++i) {
    std::printf("%s%" PRIu64, i == 0 ? "" : ", ", r.slice_lookups[i]);
  }
  std::printf("]}, \"sim\": {\"nfv.sim_p50_us\": %.17g, \"nfv.sim_p99_us\": %.17g, "
              "\"nfv.sim_gbps\": %.17g, \"kvs.sim_mtps\": %.17g, "
              "\"kvs.sim_cycles_per_req\": %.17g, \"random.sim_mops\": %.17g}}\n",
              r.nfv_p50_us, r.nfv_p99_us, r.nfv_gbps, r.kvs_mtps, r.kvs_cycles_per_req,
              r.random_mops);
  std::fflush(stdout);
}

// ---- Calibration loop ---------------------------------------------------------------
//
// The benchmark's host shares its cores, caches and memory with other work,
// and its speed drifts by a quarter or more over minutes. Right before each
// repetition simbench times this fixed loop, which calls nothing in src/.
// run.py scales each repetition's host times by the loop's speed, so a slow
// minute slows both and cancels out, while a change to src/ moves only the
// repetition.

// A 16-way LRU tag store in plain C++, probed by a fixed address stream, so
// it leans on the host the way the hierarchy's hot path does.
class TagStore {
 public:
  explicit TagStore(std::size_t sets)
      : set_mask_(sets - 1), tags_(kWays * sets), stamps_(kWays * sets) {}

  // Host seconds of one pass; every pass starts from the same empty store.
  double Seconds() {
    std::fill(tags_.begin(), tags_.end(), ~std::uint64_t{0});
    std::fill(stamps_.begin(), stamps_.end(), 0);
    HostTimer timer;
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    std::uint64_t clock = 0;
    for (std::size_t i = 0; i < kProbes; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      // Three probes in four go to a hot region of 64k lines, the rest to 4M.
      std::uint64_t line = (x >> 20) & ((std::uint64_t{1} << 22) - 1);
      if ((x >> 60) < 12) {
        line &= (std::uint64_t{1} << 16) - 1;
      }
      const std::size_t set = static_cast<std::size_t>(line ^ (line >> 14)) & set_mask_;
      std::uint64_t* tags = &tags_[set * kWays];
      std::uint64_t* stamps = &stamps_[set * kWays];
      std::size_t hit = kWays;
      std::size_t lru = 0;
      for (std::size_t w = 0; w < kWays; ++w) {
        if (tags[w] == line) {
          hit = w;
        }
        if (stamps[w] < stamps[lru]) {
          lru = w;
        }
      }
      if (hit == kWays) {
        tags[lru] = line;
        hit = lru;
      } else {
        ++hits_;
      }
      stamps[hit] = ++clock;
    }
    return timer.Seconds();
  }

  std::size_t bytes() const { return (tags_.size() + stamps_.size()) * sizeof(std::uint64_t); }

 private:
  static constexpr std::size_t kWays = 16;
  static constexpr std::size_t kProbes = 1'000'000;
  std::size_t set_mask_;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t hits_ = 0;  // kept so the compiler keeps the probes
};

// Two stores: one that stays in the host's caches and one that spills past
// them, so the loop slows both when the host's cores are contended and when
// its caches and memory are. Measured on the three workloads, the pair
// tracked each of them better than either store alone.
class CalibrationLoop {
 public:
  // Host seconds of one pass: the geometric mean of the two stores' passes.
  double Seconds() { return std::sqrt(small_.Seconds() * large_.Seconds()); }

  // Resident for the whole run; run.py takes it out of the peak RSS.
  std::size_t bytes() const { return small_.bytes() + large_.bytes(); }

 private:
  TagStore small_{std::size_t{1} << 14};  // 4 MB
  TagStore large_{std::size_t{1} << 16};  // 16 MB
};

// ---- Command line -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool short_sizes = false;
  bool check = false;
  std::string spans_path;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "simbench: %s\n"
               "usage: simbench --workload nfv_chain|llc_miss|kvs_zipf --seed N --seconds S\n"
               "                --trace 0|1 [--short] [--check] [--spans PATH]\n",
               why);
  return 2;
}

bool ParseU64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0' && text[0] != '-';
}

bool ParseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      o.short_sizes = true;
      continue;
    }
    if (flag == "--check") {
      o.check = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed" && ParseU64(value, n)) {
      o.seed = n;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(o.seconds >= 0 && o.seconds <= 3600)) {
        return false;
      }
    } else if (flag == "--trace" && ParseU64(value, n) && n <= 1) {
      o.trace = n == 1;
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else {
      return false;
    }
  }
  return !o.workload.empty();
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, o)) {
    return Usage("bad arguments");
  }
  RepResult (*run)(const Sizes&, std::uint64_t, Tracer&) = nullptr;
  if (o.workload == "nfv_chain") {
    run = RunNfvChain;
  } else if (o.workload == "llc_miss") {
    run = RunLlcMiss;
  } else if (o.workload == "kvs_zipf") {
    run = RunKvsZipf;
  } else {
    return Usage("unknown workload");
  }
  const Sizes& sizes = o.short_sizes ? kShortSizes : kFullSizes;
  Tracer tracer;
  if (o.check) {
    PrintRep(0, o.seed, /*check=*/true, /*traced=*/false, run(sizes, o.seed, tracer));
    return 0;
  }
  CalibrationLoop calibration;
  std::size_t rep = 0;
  // Measured repetitions until the time budget is spent, at least three
  // (four when tracing: traced and untraced alternate, untraced first).
  const std::size_t min_reps = o.trace ? 4 : 3;
  HostTimer budget;
  for (std::size_t measured = 0; measured < min_reps || budget.Seconds() < o.seconds;
       ++measured) {
    const bool traced = o.trace && measured % 2 == 1;
    const double calib_s = calibration.Seconds();
    tracer.set_enabled(traced);
    const std::size_t span = tracer.Open(Name::kRep, rep);
    RepResult r = run(sizes, o.seed, tracer);
    tracer.Close(span, r.ops);
    r.calib_s = calib_s;
    r.calib_bytes = calibration.bytes();
    tracer.set_enabled(false);
    PrintRep(rep++, o.seed, /*check=*/false, traced, r);
  }
  if (!o.spans_path.empty() && !tracer.Write(o.spans_path.c_str())) {
    std::fprintf(stderr, "simbench: cannot write %s\n", o.spans_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace cachedir

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's adaptive one, so every large
  // buffer is mapped fresh and unmapped on free. Each repetition then pays
  // the page faults a new process would, instead of reusing pages or not
  // depending on the previous repetition's frees.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return cachedir::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: %s\n", e.what());
    return 1;
  }
}
