// End-to-end all-pairs benchmark program (perfbench_e2e).
//
// Runs rocket::LiveCluster::run_all_pairs on one seeded workload again and
// again for a fixed measuring window, then checks every delivered result
// against a serial reference computed apart from the runtime and prints
// one JSON line of metrics (see perfbench/README.md for the contract).
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 [--spawn-ns T] [--trace-out FILE] [--tiny]
//                 [--inject drop|dup|perturb|journal]
//
// --trace 0 reports the end-to-end metrics; --trace 1 wraps the
// application, the stores and the result callback in timing decorators,
// reports the per-layer metrics and writes the spans as Chrome-trace JSON.
// --inject corrupts the first call's delivered results (or its journal)
// before the checks, so the checker's own tests can show that each check
// rejects what it should. --tiny shrinks the inputs for those tests.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/bioinformatics.hpp"
#include "apps/forensics.hpp"
#include "apps/microscopy.hpp"
#include "common/rng.hpp"
#include "gpu/device_spec.hpp"
#include "gpu/virtual_device.hpp"
#include "mesh/checkpoint.hpp"
#include "mesh/live_cluster.hpp"
#include "mesh/transport.hpp"
#include "storage/object_store.hpp"

#include <malloc.h>
#include <unistd.h>

namespace {

using namespace rocket;
using Clock = std::chrono::steady_clock;
using runtime::ItemId;

constexpr double kMiB = 1024.0 * 1024.0;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// --- spans ----------------------------------------------------------------

/// In-memory span log: one record per timed call into a layer. Parent is
/// the innermost span open on the same thread, else the run span (id 0).
struct Span {
  const char* name;
  double start_s;
  double end_s;
  std::uint32_t id;
  std::uint32_t parent;
  std::uint32_t thread;
};

class Tracer {
 public:
  bool enabled = false;
  Clock::time_point epoch = Clock::now();

  std::vector<Span> take() {
    std::scoped_lock lock(mutex_);
    return std::exchange(spans_, {});
  }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(&tracer), name_(name) {
      if (!tracer_->enabled) return;
      id_ = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
      parent_ = open_span();
      open_span() = id_;
      start_ = Clock::now();
    }
    ~Scope() {
      if (!tracer_->enabled) return;
      const auto end = Clock::now();
      open_span() = parent_;
      tracer_->record({name_, seconds_between(tracer_->epoch, start_),
                       seconds_between(tracer_->epoch, end), id_, parent_,
                       thread_index()});
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    Clock::time_point start_;
  };

 private:
  static std::uint32_t& open_span() {
    thread_local std::uint32_t open = 0;
    return open;
  }
  static std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t index =
        next.fetch_add(1, std::memory_order_relaxed);
    return index;
  }
  void record(const Span& span) {
    std::scoped_lock lock(mutex_);
    spans_.push_back(span);
  }

  std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<std::uint32_t> next_id_{1};
};

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) throw std::runtime_error("cannot write trace " + path);
  std::fprintf(out, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u}}",
                 i ? "," : "", s.name, s.thread, 1e6 * s.start_s,
                 1e6 * (s.end_s - s.start_s), s.id, s.parent);
  }
  std::fprintf(out, "\n],\"displayTimeUnit\":\"ms\"}\n");
  std::fclose(out);
}

// --- decorators -----------------------------------------------------------

/// Counts every call into the application (always) and times it (traced).
class MeteredApp final : public runtime::Application {
 public:
  MeteredApp(const runtime::Application& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  std::string name() const override { return inner_->name(); }
  std::uint32_t item_count() const override { return inner_->item_count(); }
  std::string file_name(ItemId item) const override {
    return inner_->file_name(item);
  }
  Bytes slot_size() const override { return inner_->slot_size(); }

  void parse(ItemId item, const ByteBuffer& file,
             runtime::HostBuffer& out) const override {
    parse_calls.fetch_add(1, std::memory_order_relaxed);
    Tracer::Scope span(*tracer_, "apps.parse");
    inner_->parse(item, file, out);
  }
  void preprocess(ItemId item, gpu::DeviceBuffer& data) const override {
    preprocess_calls.fetch_add(1, std::memory_order_relaxed);
    Tracer::Scope span(*tracer_, "apps.preprocess");
    inner_->preprocess(item, data);
  }
  double compare(ItemId left, const gpu::DeviceBuffer& left_data, ItemId right,
                 const gpu::DeviceBuffer& right_data) const override {
    compare_calls.fetch_add(1, std::memory_order_relaxed);
    Tracer::Scope span(*tracer_, "apps.compare");
    return inner_->compare(left, left_data, right, right_data);
  }
  double postprocess(ItemId left, ItemId right, double score) const override {
    Tracer::Scope span(*tracer_, "apps.postprocess");
    return inner_->postprocess(left, right, score);
  }

  void reset() {
    parse_calls = 0;
    preprocess_calls = 0;
    compare_calls = 0;
  }

  mutable std::atomic<std::uint64_t> parse_calls{0};
  mutable std::atomic<std::uint64_t> preprocess_calls{0};
  mutable std::atomic<std::uint64_t> compare_calls{0};

 private:
  const runtime::Application* inner_;
  Tracer* tracer_;
};

/// Counts reads and appends at the store boundary (always) and times them
/// (traced). `read_bytes` is the store load the paper's §6.2 storage
/// server carries.
class MeteredStore final : public storage::ObjectStore {
 public:
  MeteredStore(storage::ObjectStore& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  ByteBuffer read(const std::string& name) override {
    Tracer::Scope span(*tracer_, "storage.read");
    ByteBuffer data = inner_->read(name);
    reads.fetch_add(1, std::memory_order_relaxed);
    read_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return data;
  }
  bool exists(const std::string& name) const override {
    return inner_->exists(name);
  }
  Bytes size_of(const std::string& name) const override {
    return inner_->size_of(name);
  }
  std::vector<std::string> list() const override { return inner_->list(); }
  bool supports_write() const override { return inner_->supports_write(); }
  void put(const std::string& name, const ByteBuffer& data) override {
    inner_->put(name, data);
  }
  void append(const std::string& name, const ByteBuffer& data) override {
    Tracer::Scope span(*tracer_, "storage.append");
    inner_->append(name, data);
    appends.fetch_add(1, std::memory_order_relaxed);
    append_bytes.fetch_add(data.size(), std::memory_order_relaxed);
  }

  void reset() {
    reads = 0;
    read_bytes = 0;
    appends = 0;
    append_bytes = 0;
  }

  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> read_bytes{0};
  std::atomic<std::uint64_t> appends{0};
  std::atomic<std::uint64_t> append_bytes{0};

 private:
  storage::ObjectStore* inner_;
  Tracer* tracer_;
};

/// Fixed per-read latency, the model of the paper's remote storage server.
/// It sleeps until shortly before the deadline and spins the rest, so a
/// read takes the latency and not the latency plus the scheduler's wake-up
/// delay, which grows with the host's load. (storage::ThrottledStore's
/// plain sleep_for overshoots by that delay on every read.)
class LatencyStore final : public storage::ObjectStore {
 public:
  LatencyStore(storage::ObjectStore& inner, std::uint64_t latency_us)
      : inner_(&inner), latency_(latency_us) {}

  ByteBuffer read(const std::string& name) override {
    const auto deadline = Clock::now() + latency_;
    constexpr std::chrono::microseconds kSpin{300};
    if (latency_ > kSpin) std::this_thread::sleep_until(deadline - kSpin);
    while (Clock::now() < deadline) {
    }
    return inner_->read(name);
  }
  bool exists(const std::string& name) const override {
    return inner_->exists(name);
  }
  Bytes size_of(const std::string& name) const override {
    return inner_->size_of(name);
  }
  std::vector<std::string> list() const override { return inner_->list(); }

 private:
  storage::ObjectStore* inner_;
  std::chrono::microseconds latency_;
};

// --- result collection and checking --------------------------------------

std::uint64_t pair_count(std::uint32_t n) {
  return static_cast<std::uint64_t>(n) * (n - 1) / 2;
}

/// Dense index of pair (i, j), i < j.
std::uint64_t pair_index(std::uint32_t n, ItemId i, ItemId j) {
  return static_cast<std::uint64_t>(i) * n -
         static_cast<std::uint64_t>(i) * (i + 1) / 2 + (j - i - 1);
}

/// Everything one run_all_pairs call delivered to its callback, dense by
/// pair index. Allocated once and reused by every call, so the checker's
/// memory does not grow with the number of calls a run fits.
struct Delivery {
  std::vector<std::uint32_t> count;
  std::vector<double> score;  // last score delivered per pair
  std::uint64_t out_of_range = 0;  // (i, j) with i >= j or j >= n
  std::vector<runtime::PairResult> received;  // the callback's multiset
  std::vector<double> at_s;  // delivery times since the call (traced)
};

class Collector {
 public:
  Collector(std::uint32_t n, Tracer& tracer) : n_(n), tracer_(&tracer) {
    delivery_.count.resize(pair_count(n));
    delivery_.score.resize(pair_count(n));
    delivery_.received.reserve(pair_count(n));
    if (tracer_->enabled) delivery_.at_s.reserve(pair_count(n));
  }

  void begin() {
    std::fill(delivery_.count.begin(), delivery_.count.end(), 0u);
    std::fill(delivery_.score.begin(), delivery_.score.end(), 0.0);
    delivery_.out_of_range = 0;
    delivery_.received.clear();
    delivery_.at_s.clear();
    start_ = Clock::now();
  }

  void on_result(const runtime::PairResult& r) {
    Tracer::Scope span(*tracer_, "result.callback");
    std::scoped_lock lock(mutex_);
    delivery_.received.push_back(r);
    if (tracer_->enabled) {
      delivery_.at_s.push_back(seconds_between(start_, Clock::now()));
    }
    if (r.left >= r.right || r.right >= n_) {
      ++delivery_.out_of_range;
      return;
    }
    const auto idx = pair_index(n_, r.left, r.right);
    ++delivery_.count[idx];
    delivery_.score[idx] = r.score;
  }

  /// Valid once run_all_pairs has returned (no callback is in flight).
  Delivery& delivery() { return delivery_; }

 private:
  std::uint32_t n_;
  Tracer* tracer_;
  std::mutex mutex_;
  Delivery delivery_;
  Clock::time_point start_;
};

/// Scores agree with the reference when within this relative tolerance.
/// Runtime and reference execute the same compiled kernels on the same
/// bytes, so any disagreement is a delivery or buffer fault, not rounding.
constexpr double kTolerance = 1e-9;

bool agrees(double got, double want) {
  return std::fabs(got - want) <= kTolerance * std::max(1.0, std::fabs(want));
}

/// A pair delivered a number of times other than once, or whose score is
/// NaN or disagrees with the reference (where the reference covers it).
struct Verdict {
  const std::vector<double>* ref;
  const std::vector<bool>* has;

  bool bad_score(std::uint64_t idx, double score) const {
    return std::isnan(score) || ((*has)[idx] && !agrees(score, (*ref)[idx]));
  }
  bool failed(std::uint64_t idx, std::uint32_t count, double score) const {
    return count != 1 || bad_score(idx, score);
  }
};

/// A later call's pair that differs from the first call's delivery.
struct Deviation {
  std::uint64_t idx;
  std::uint32_t count;
  double score;
};

/// What a call after the first keeps for the checker: only how it differs
/// from the first call (nothing, when both are right).
struct CallDiff {
  std::uint64_t out_of_range = 0;
  std::vector<Deviation> deviations;
};

CallDiff diff_against(const Delivery& first, const Delivery& d) {
  CallDiff diff;
  diff.out_of_range = d.out_of_range;
  for (std::size_t idx = 0; idx < d.count.size(); ++idx) {
    if (d.count[idx] != 1 || first.count[idx] != 1 ||
        std::memcmp(&d.score[idx], &first.score[idx], sizeof(double)) != 0) {
      diff.deviations.push_back({idx, d.count[idx], d.score[idx]});
    }
  }
  return diff;
}

/// Multiset equality of two result lists (order-insensitive, exact scores).
bool same_multiset(std::vector<runtime::PairResult> a,
                   std::vector<runtime::PairResult> b) {
  const auto key = [](const runtime::PairResult& r) {
    return std::make_tuple(r.left, r.right, r.score);
  };
  const auto less = [&](const runtime::PairResult& x,
                        const runtime::PairResult& y) { return key(x) < key(y); };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [&](const auto& x, const auto& y) { return key(x) == key(y); });
}

/// Rewrites a journal object without its first ResultBatch record (the
/// `--inject journal` fault: a journal that lacks one batch).
void drop_first_batch(storage::MemoryStore& store, const std::string& name) {
  const ByteBuffer bytes = store.read(name);
  ByteBuffer kept;
  bool dropped = false;
  std::size_t at = 0;
  while (at + 8 <= bytes.size()) {
    std::uint32_t length = 0;
    std::memcpy(&length, bytes.data() + at, sizeof(length));
    const std::size_t end = at + 8 + length;
    if (end > bytes.size()) break;
    const bool batch =
        length > 0 && bytes[at + 8] == mesh::checkpoint::Journal::kResultBatch;
    if (batch && !dropped) {
      dropped = true;
    } else {
      kept.insert(kept.end(), bytes.begin() + at, bytes.begin() + end);
    }
    at = end;
  }
  store.put(name, kept);
}

// --- workloads --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string inject;
  std::string trace_out;
  std::optional<std::int64_t> spawn_ns;
};

enum class Kind { kForensics, kPhylogeny, kMicroscopy };

/// One benchmark input: the generated dataset in its store, the app, and
/// the cluster configuration that drives it.
struct Workload {
  Kind kind = Kind::kForensics;
  storage::MemoryStore inputs;
  storage::MemoryStore journal;  // checkpoint target (phylogeny-journal)
  std::unique_ptr<apps::ForensicsDataset> forensics;
  std::unique_ptr<apps::BioinformaticsDataset> phylogeny;
  std::unique_ptr<apps::MicroscopyDataset> microscopy;
  std::unique_ptr<runtime::Application> app;
  mesh::LiveClusterConfig cluster;
  std::uint64_t store_latency_us = 0;
  bool fault_free = true;
  std::uint32_t reference_sample = 0;  // 0 = reference for every pair
};

/// Four in-process nodes, one CPU-pool thread and one virtual device each.
/// The runtime keeps its own default seed: --seed shapes only the inputs.
mesh::LiveClusterConfig four_nodes() {
  mesh::LiveClusterConfig c;
  c.num_nodes = 4;
  c.node.devices = {gpu::titanx_maxwell()};
  c.node.cpu_threads = 1;
  return c;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  auto w = std::make_unique<Workload>();
  w->cluster = four_nodes();
  const std::string& name = opt.workload;
  if (name == "forensics-4node" || name == "forensics-kill") {
    w->kind = Kind::kForensics;
    apps::ForensicsConfig fc;
    const bool with_kill = name == "forensics-kill";
    fc.cameras = opt.tiny ? 2 : 8;
    fc.images_per_camera = opt.tiny ? 6 : with_kill ? 32 : 16;
    fc.width = 128;  // 128 x 96 floats: a 49 KiB parsed item
    fc.height = 96;
    fc.seed = opt.seed;
    w->forensics = std::make_unique<apps::ForensicsDataset>(fc, w->inputs);
    w->app = std::make_unique<apps::ForensicsApplication>(*w->forensics);
    // The dataset is 3x each node's host cache and 6x its device cache.
    w->cluster.node.host_cache_capacity = with_kill ? 4_MiB : 2_MiB;
    w->cluster.node.device_cache_capacity = with_kill ? 2_MiB : 1_MiB;
    w->store_latency_us = with_kill ? 2000 : 5000;
    if (with_kill) {
      mesh::Fault kill;
      kill.node = 2;
      kill.after_messages = opt.tiny ? 20 : 200;
      w->cluster.faults.faults.push_back(kill);
      w->cluster.lease_timeout_s = 0.1;
      w->cluster.heartbeat_interval_s = 0.01;
      w->fault_free = false;
    }
  } else if (name == "microscopy-4node") {
    w->kind = Kind::kMicroscopy;
    apps::MicroscopyConfig mc;
    mc.particles = opt.tiny ? 8 : 32;
    mc.binding_sites = 8;
    // Every site labelled with three localisations: each particle has 24
    // points, so the compare cost varies by optimiser path, not by seed.
    mc.labelling_efficiency = 1.0;
    mc.localizations_per_site_min = 3;
    mc.localizations_per_site_max = 3;
    mc.seed = opt.seed;
    w->microscopy = std::make_unique<apps::MicroscopyDataset>(mc, w->inputs);
    w->app = std::make_unique<apps::MicroscopyApplication>(*w->microscopy);
    w->cluster.node.host_cache_capacity = 16_MiB;
    w->reference_sample = 64;
  } else if (name == "phylogeny-journal") {
    w->kind = Kind::kPhylogeny;
    apps::BioinformaticsConfig bc;
    bc.species = opt.tiny ? 8 : 128;
    // Equal-length proteins: every proteome has 60 x 240 residues, so the
    // file sizes and pre-process cost do not vary with the seed.
    bc.proteins = 60;
    bc.protein_len_min = 240;
    bc.protein_len_max = 240;
    bc.seed = opt.seed;
    w->phylogeny =
        std::make_unique<apps::BioinformaticsDataset>(bc, w->inputs);
    w->app = std::make_unique<apps::BioinformaticsApplication>(*w->phylogeny);
    // Every composition vector fits the node's caches and the distributed
    // cache is off: each node loads and pre-processes what it needs, so the
    // run is bound by pre-processing and the master's result path, and its
    // store load does not hang on peer-fetch timing.
    w->cluster.node.host_cache_capacity = 64_MiB;
    w->cluster.distributed_cache = false;
    w->cluster.checkpoint_store = &w->journal;
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  return w;
}

// --- serial reference -------------------------------------------------------

/// Every item parsed and pre-processed once, serially, on fresh device
/// buffers sized like the runtime's cache slots; then the reference score
/// of each checked pair through compare + postprocess.
struct Reference {
  std::vector<double> score;  // dense pair index
  std::vector<bool> has;      // pairs the reference covers
  std::vector<std::pair<ItemId, ItemId>> pairs;
  std::vector<gpu::DeviceBuffer> items;
  double serial_s = 0.0;
};

gpu::DeviceBuffer prepare_item(const runtime::Application& app,
                               storage::ObjectStore& store,
                               gpu::VirtualDevice& device, ItemId item) {
  runtime::HostBuffer parsed;
  app.parse(item, store.read(app.file_name(item)), parsed);
  gpu::DeviceBuffer buffer =
      device.allocate(std::max<std::size_t>({parsed.size(), app.slot_size(), 1}));
  std::copy(parsed.begin(), parsed.end(), buffer.data());
  std::fill(buffer.data() + parsed.size(), buffer.data() + buffer.size(),
            std::uint8_t{0});
  app.preprocess(item, buffer);
  return buffer;
}

Reference build_reference(Workload& w, gpu::VirtualDevice& device,
                          std::uint64_t seed) {
  const runtime::Application& app = *w.app;
  const std::uint32_t n = app.item_count();
  Reference ref;
  ref.score.assign(pair_count(n), 0.0);
  ref.has.assign(pair_count(n), false);
  if (w.reference_sample == 0 || w.reference_sample >= pair_count(n)) {
    for (ItemId i = 0; i < n; ++i) {
      for (ItemId j = i + 1; j < n; ++j) ref.pairs.emplace_back(i, j);
    }
  } else {
    Rng rng(mix64(seed * 0x51ED27 + 3));
    while (ref.pairs.size() < w.reference_sample) {
      auto i = static_cast<ItemId>(rng.uniform_int(0, n - 1));
      auto j = static_cast<ItemId>(rng.uniform_int(0, n - 1));
      if (i == j) continue;
      if (i > j) std::swap(i, j);
      if (ref.has[pair_index(n, i, j)]) continue;
      ref.has[pair_index(n, i, j)] = true;
      ref.pairs.emplace_back(i, j);
    }
  }
  const auto t0 = Clock::now();
  for (ItemId i = 0; i < n; ++i) {
    ref.items.push_back(prepare_item(app, w.inputs, device, i));
  }
  for (const auto& [i, j] : ref.pairs) {
    const double raw_score = app.compare(i, ref.items[i], j, ref.items[j]);
    const auto idx = pair_index(n, i, j);
    ref.score[idx] = app.postprocess(i, j, raw_score);
    ref.has[idx] = true;
  }
  ref.serial_s = seconds_between(t0, Clock::now());
  return ref;
}

std::vector<apps::Point2> unpack_points(const gpu::DeviceBuffer& data) {
  std::uint32_t count = 0;
  std::memcpy(&count, data.data(), sizeof(count));
  std::vector<apps::Point2> points(count);
  std::memcpy(points.data(), data.data() + sizeof(count),
              count * sizeof(apps::Point2));
  return points;
}

/// The app's documented method properties, checked on the reference; a
/// run's scores then inherit them through the per-pair agreement check.
/// Returns the name of the first property that fails, or empty.
std::string check_properties(const Workload& w, const Reference& ref,
                             std::uint64_t seed) {
  const runtime::Application& app = *w.app;
  const std::uint32_t n = app.item_count();
  // Symmetry on a seeded sample: compare(j, i) == compare(i, j). Particle
  // registration moves one cloud onto the other, so its optimiser path (and
  // score) depends on the order; microscopy makes no symmetry claim.
  Rng rng(mix64(seed * 0x5EED + 11));
  const bool symmetric = w.kind != Kind::kMicroscopy;
  for (int k = 0; symmetric && k < 16 && !ref.pairs.empty(); ++k) {
    const auto& [i, j] = ref.pairs[rng.uniform_int(0, ref.pairs.size() - 1)];
    const double swapped =
        app.postprocess(j, i, app.compare(j, ref.items[j], i, ref.items[i]));
    if (!agrees(swapped, ref.score[pair_index(n, i, j)])) return "symmetry";
  }
  switch (w.kind) {
    case Kind::kForensics: {
      double same_min = 2.0, cross_max = -2.0;
      for (const auto& [i, j] : ref.pairs) {
        const double s = ref.score[pair_index(n, i, j)];
        if (!(s >= -1.0 && s <= 1.0)) return "forensics NCC in [-1, 1]";
        if (w.forensics->camera_of(i) == w.forensics->camera_of(j)) {
          same_min = std::min(same_min, s);
        } else {
          cross_max = std::max(cross_max, s);
        }
      }
      if (!(same_min > cross_max)) return "forensics same-camera ranking";
      break;
    }
    case Kind::kPhylogeny: {
      std::map<std::uint32_t, std::pair<double, std::uint64_t>> by_depth;
      for (const auto& [i, j] : ref.pairs) {
        const double d = ref.score[pair_index(n, i, j)];
        if (!(d >= 0.0 && d <= 1.0)) return "phylogeny distance in [0, 1]";
        auto& [sum, count] = by_depth[w.phylogeny->clade_depth(i, j)];
        sum += d;
        ++count;
      }
      double previous = 2.0;
      for (const auto& [depth, acc] : by_depth) {
        const double mean = acc.first / static_cast<double>(acc.second);
        if (!(mean < previous)) return "phylogeny mean falls with clade depth";
        previous = mean;
      }
      break;
    }
    case Kind::kMicroscopy: {
      // Baseline per item: the particle registered against a random cloud
      // of its own size, spread over the template's extent.
      const double radius =
          w.microscopy->config().ring_radius +
          2.0 * w.microscopy->config().localization_noise;
      std::vector<double> baseline(n, -1.0);
      const auto baseline_of = [&](ItemId item) {
        if (baseline[item] >= 0.0) return baseline[item];
        const auto points = unpack_points(ref.items[item]);
        Rng cloud_rng(mix64(seed * 0xC10D + item));
        std::vector<apps::Point2> cloud;
        while (cloud.size() < points.size()) {
          const double x = cloud_rng.uniform(-radius, radius);
          const double y = cloud_rng.uniform(-radius, radius);
          if (x * x + y * y <= radius * radius) cloud.push_back({x, y});
        }
        baseline[item] = apps::register_particles(
                             points, cloud,
                             w.microscopy->config().localization_noise)
                             .score;
        return baseline[item];
      };
      for (const auto& [i, j] : ref.pairs) {
        const double s = ref.score[pair_index(n, i, j)];
        const double bound = static_cast<double>(
            std::max(unpack_points(ref.items[i]).size(),
                     unpack_points(ref.items[j]).size()));
        if (!(std::isfinite(s) && s > 0.0 && s <= bound)) {
          return "microscopy score in (0, max(|a|, |b|)]";
        }
        if (!(s > std::max(baseline_of(i), baseline_of(j)))) {
          return "microscopy pair above random-cloud baseline";
        }
      }
      break;
    }
  }
  return {};
}

// --- per-layer probes --------------------------------------------------------

/// Median per-call cost in microseconds of `fn`, over batches run for at
/// least `budget_s` in total.
template <typename Fn>
double probe_us(Fn&& fn, double budget_s = 0.2) {
  std::vector<double> per_call;
  const auto start = Clock::now();
  constexpr int kBatch = 32;
  while (seconds_between(start, Clock::now()) < budget_s ||
         per_call.size() < 5) {
    const auto t0 = Clock::now();
    for (int k = 0; k < kBatch; ++k) fn();
    per_call.push_back(1e6 * seconds_between(t0, Clock::now()) / kBatch);
  }
  return median(per_call);
}

/// mesh::frame_crc over one CacheData frame carrying a parsed item, and one
/// InProcessTransport hop of that frame (send, recv, receiver CRC check).
std::pair<double, double> probe_mesh(Workload& w, ItemId item) {
  runtime::HostBuffer parsed;
  w.app->parse(item, w.inputs.read(w.app->file_name(item)), parsed);
  parsed.resize(std::max<std::size_t>(parsed.size(), w.app->slot_size()));
  mesh::CacheData data;
  data.item = item;
  data.bytes = parsed;
  const mesh::MessageBody body = data;
  std::uint32_t sink = 0;
  const double crc_us = probe_us([&] { sink ^= mesh::frame_crc(body); });

  mesh::InProcessTransport::Config tc;
  tc.compress_threshold = w.cluster.peer_compress_threshold;
  mesh::InProcessTransport transport(2, tc);
  bool intact = true;
  const double hop_us = probe_us([&] {
    transport.send(0, 1, net::Tag::kCacheData, body, parsed.size());
    const auto msg = transport.recv(1);
    intact = intact && msg && mesh::frame_crc(msg->body) == msg->crc;
  });
  transport.close();
  if (!intact) throw std::runtime_error("probe frame failed its CRC check");
  if (sink == 0xFFFFFFFFu) std::fprintf(stderr, " ");  // keep sink live
  return {crc_us, hop_us};
}

// --- metrics -------------------------------------------------------------------

struct CallRecord {
  double wall_s = 0.0;
  double peak_rss_mib = 0.0;
  mesh::LiveClusterReport report;
  std::uint64_t store_reads = 0, store_read_bytes = 0;
  std::uint64_t appends = 0, append_bytes = 0;
  std::uint64_t parse_calls = 0, preprocess_calls = 0, compare_calls = 0;
  std::map<std::string, double> busy_s;  // traced: summed span time per name
  double first_s = 0.0, tail_s = 0.0;    // traced: result latencies
  CallDiff diff;                         // calls after the first
  bool journal_matches = true;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics of one call (medians across calls are reported).
std::vector<Metric> layer_metrics(const CallRecord& c, std::uint32_t n) {
  const auto& r = c.report;
  const double pairs = static_cast<double>(pair_count(n));
  double device_hits = 0, device_evictions = 0, tiles = 0, device_busy = 0;
  double pairs_max = 0, pairs_sum = 0, local_steals = 0, failed_sweeps = 0;
  for (const auto& node : r.nodes) {
    local_steals += node.steal.steals;
    failed_sweeps += node.steal.failed_steal_sweeps;
    for (const auto& dc : node.device_caches) {
      device_hits += dc.hits;
      device_evictions += dc.evictions;
    }
    for (const double b : node.device_busy_seconds) device_busy += b;
    tiles += node.tiles;
    pairs_max = std::max(pairs_max, static_cast<double>(node.pairs));
    pairs_sum += node.pairs;
  }
  const auto tag = [&](net::Tag t) {
    return r.traffic.per_tag[static_cast<std::size_t>(t)];
  };
  const auto busy = [&](const char* name) {
    const auto it = c.busy_s.find(name);
    return it == c.busy_s.end() ? 0.0 : it->second;
  };
  const double reads = static_cast<double>(c.store_reads);
  return {
      {"apps.parse.calls", double(c.parse_calls), "count"},
      {"apps.parse.busy_s", busy("apps.parse"), "s"},
      {"apps.preprocess.calls", double(c.preprocess_calls), "count"},
      {"apps.preprocess.busy_s", busy("apps.preprocess"), "s"},
      {"apps.compare.calls", double(c.compare_calls), "count"},
      {"apps.compare.busy_s", busy("apps.compare"), "s"},
      {"apps.postprocess.busy_s", busy("apps.postprocess"), "s"},
      {"apps.compare.useful_ratio",
       c.compare_calls ? pairs / double(c.compare_calls) : 0.0, "ratio"},
      {"storage.reads", reads, "count"},
      {"storage.read_busy_s", busy("storage.read"), "s"},
      {"storage.read_us", reads > 0 ? 1e6 * busy("storage.read") / reads : 0.0,
       "us"},
      {"storage.appends", double(c.appends), "count"},
      {"storage.append_mib", double(c.append_bytes) / kMiB, "MiB"},
      {"storage.append_busy_s", busy("storage.append"), "s"},
      {"cache.reuse_R", double(r.loads + r.peer_loads) / n, "ratio"},
      {"cache.host.hits", double(r.host_cache.hits), "count"},
      {"cache.host.evictions", double(r.host_cache.evictions), "count"},
      {"cache.host.alloc_stalls", double(r.host_cache.alloc_stalls), "count"},
      {"cache.device.hits", device_hits, "count"},
      {"cache.device.evictions", device_evictions, "count"},
      {"cache.directory.hit_ratio",
       r.directory.requests
           ? double(r.directory.chain_hits) / double(r.directory.requests)
           : 0.0,
       "ratio"},
      {"cache.directory.requests", double(r.directory.requests), "count"},
      {"cache.directory.hops", double(r.directory.hops), "count"},
      {"mesh.peer_loads", double(r.peer_loads), "count"},
      {"mesh.wire_mib", double(r.traffic.total_bytes()) / kMiB, "MiB"},
      {"mesh.cache_data_mib", double(tag(net::Tag::kCacheData).bytes) / kMiB,
       "MiB"},
      {"mesh.result_msgs", double(tag(net::Tag::kResult).messages), "count"},
      {"mesh.ledger_sync_mib", double(tag(net::Tag::kLedgerSync).bytes) / kMiB,
       "MiB"},
      {"mesh.peer_retries", double(r.peer_retries), "count"},
      {"mesh.node_deaths", double(r.node_deaths), "count"},
      {"mesh.regions_reexecuted", double(r.regions_reexecuted), "count"},
      {"mesh.duplicates_dropped", double(r.duplicate_results_dropped), "count"},
      {"steal.local_steals", local_steals, "count"},
      {"steal.remote_steals", double(r.remote_steals), "count"},
      {"steal.failed_sweeps", failed_sweeps, "count"},
      {"steal.node_pairs_max_over_mean",
       pairs_sum > 0 ? pairs_max / (pairs_sum / r.nodes.size()) : 0.0, "ratio"},
      {"runtime.stall_s", r.stall_seconds, "s"},
      {"runtime.device_busy_s", device_busy, "s"},
      {"runtime.tiles", tiles, "count"},
      {"runtime.prefetch_hits", double(r.prefetch_hits), "count"},
      {"result.first_s", c.first_s, "s"},
      {"result.tail_s", c.tail_s, "s"},
      {"checkpoint.records", double(r.checkpoint.records_appended), "count"},
  };
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") opt.workload = value();
    else if (flag == "--seed") opt.seed = std::stoull(value());
    else if (flag == "--seconds") opt.seconds = std::stod(value());
    else if (flag == "--trace") opt.trace = value() != "0";
    else if (flag == "--trace-out") opt.trace_out = value();
    else if (flag == "--inject") opt.inject = value();
    else if (flag == "--spawn-ns") opt.spawn_ns = std::stoll(value());
    else if (flag == "--tiny") opt.tiny = true;
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (opt.workload.empty()) throw std::runtime_error("--workload is required");
  const bool known_fault = opt.inject.empty() || opt.inject == "drop" ||
                           opt.inject == "dup" || opt.inject == "perturb" ||
                           opt.inject == "journal";
  if (!known_fault) throw std::runtime_error("unknown --inject " + opt.inject);
  return opt;
}

/// Peak resident memory of one call: this process's RSS sampled every 2 ms
/// on a helper thread while the call runs. The kernel's high-water mark
/// (VmHWM) spans the whole process, so its value is set by the rarest
/// spike of any call; the median of per-call peaks is what a run reports.
class RssSampler {
 public:
  void start() {
    peak_ = resident_bytes();
    running_ = true;
    thread_ = std::thread([this] {
      while (running_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        peak_ = std::max(peak_.load(), resident_bytes());
      }
    });
  }
  double stop_mib() {
    running_ = false;
    thread_.join();
    return static_cast<double>(std::max(peak_.load(), resident_bytes())) / kMiB;
  }

 private:
  static std::uint64_t resident_bytes() {
    std::uint64_t pages = 0;
    if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
      if (std::fscanf(f, "%*u %" SCNu64, &pages) != 1) pages = 0;
      std::fclose(f);
    }
    return pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  }

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> peak_{0};
  std::thread thread_;
};

int run(const Options& opt) {
  const Clock::time_point spawn =
      opt.spawn_ns ? Clock::time_point(std::chrono::nanoseconds(*opt.spawn_ns))
                   : Clock::now();

  // --- set-up: inputs into the store, the app, the stores, the cluster ---
  auto w = make_workload(opt);
  const std::uint32_t n = w->app->item_count();
  Tracer tracer;
  tracer.enabled = opt.trace;
  MeteredApp app(*w->app, tracer);
  LatencyStore remote(w->inputs, w->store_latency_us);
  MeteredStore store(remote, tracer);
  MeteredStore journal(w->journal, tracer);
  if (w->cluster.checkpoint_store) w->cluster.checkpoint_store = &journal;
  mesh::LiveCluster cluster(w->cluster);
  Collector collector(n, tracer);
  RssSampler rss;
  const auto on_result = [&collector](const runtime::PairResult& r) {
    collector.on_result(r);
  };

  // --- measuring window: whole run_all_pairs calls ---
  std::vector<CallRecord> calls;
  double setup_s = 0.0;
  Delivery first;  // the first call's delivery, kept whole for the checker
  std::vector<Span> first_call_spans;
  const auto window = Clock::now();
  do {
    app.reset();
    store.reset();
    journal.reset();
    collector.begin();
    tracer.epoch = Clock::now();
    CallRecord c;
    // Hand the previous call's freed heap back to the kernel, so that each
    // call's peak RSS starts from the same trimmed heap.
    malloc_trim(0);
    rss.start();
    const auto t0 = Clock::now();
    c.report = cluster.run_all_pairs(app, store, on_result);
    const auto t1 = Clock::now();
    c.wall_s = seconds_between(t0, t1);
    // Set-up ends with the warm-up call: work that moves out of the timed
    // calls into start-up, or into a first call, shows here.
    if (calls.empty()) setup_s = seconds_between(spawn, t1);
    c.peak_rss_mib = rss.stop_mib();
    c.store_reads = store.reads;
    c.store_read_bytes = store.read_bytes;
    c.appends = journal.appends;
    c.append_bytes = journal.append_bytes;
    c.parse_calls = app.parse_calls;
    c.preprocess_calls = app.preprocess_calls;
    c.compare_calls = app.compare_calls;

    Delivery& d = collector.delivery();
    if (calls.empty() && !opt.inject.empty()) {
      // Corrupt the first call's output the way the checker's tests need.
      const auto idx = pair_index(n, 0, 1);
      if (opt.inject == "drop") d.count[idx] = 0;
      if (opt.inject == "dup") ++d.count[idx];
      if (opt.inject == "perturb") d.score[idx] += 1e-6;
      if (opt.inject == "journal") {
        drop_first_batch(w->journal, w->cluster.checkpoint_name);
      }
    }
    if (w->cluster.checkpoint_store) {
      const auto replay = mesh::checkpoint::Journal::replay(
          w->journal, w->cluster.checkpoint_name);
      c.journal_matches = same_multiset(replay.results, d.received);
    }
    if (calls.empty()) {
      first = d;
    } else {
      c.diff = diff_against(first, d);
    }
    if (opt.trace) {
      auto spans = tracer.take();
      for (const Span& s : spans) c.busy_s[s.name] += s.end_s - s.start_s;
      std::sort(d.at_s.begin(), d.at_s.end());
      if (!d.at_s.empty()) {
        const auto p99 = static_cast<std::size_t>(0.99 * (d.at_s.size() - 1));
        c.first_s = d.at_s.front();
        c.tail_s = d.at_s.back() - d.at_s[p99];
      }
      if (calls.empty()) {
        const double begin = seconds_between(tracer.epoch, t0);
        spans.push_back({"run_all_pairs", begin, begin + c.wall_s, 0, 0, 0});
        first_call_spans = std::move(spans);
      }
    }
    std::fprintf(stderr, "call %zu: %.3f s, %.3f MiB read, %.1f MiB peak\n",
                 calls.size(), c.wall_s, c.store_read_bytes / kMiB,
                 c.peak_rss_mib);
    calls.push_back(std::move(c));
  } while (seconds_between(window, Clock::now()) < opt.seconds ||
           calls.size() < 2);

  // --- checks, apart from the runtime ---
  gpu::VirtualDevice device(0, gpu::titanx_maxwell());
  const Reference ref = build_reference(*w, device, opt.seed);
  const Verdict verdict{&ref.score, &ref.has};
  std::vector<std::string> problems;
  if (const auto bad = check_properties(*w, ref, opt.seed); !bad.empty()) {
    problems.push_back("property: " + bad);
  }
  // The first call is checked pair by pair; a later call's pair that did
  // not deviate from the first call inherits the first call's verdict.
  std::uint64_t first_failed = first.out_of_range, first_bad_scores = 0;
  for (std::uint64_t idx = 0; idx < first.count.size(); ++idx) {
    first_failed += verdict.failed(idx, first.count[idx], first.score[idx]);
    first_bad_scores += verdict.bad_score(idx, first.score[idx]);
  }
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t k = 0; k < calls.size(); ++k) {
    const CallRecord& c = calls[k];
    attempted += pair_count(n);
    if (k == 0) {
      failed += first_failed;
    } else {
      failed += c.diff.out_of_range + first_bad_scores;
      for (const Deviation& dev : c.diff.deviations) {
        failed -= verdict.bad_score(dev.idx, first.score[dev.idx]);
        failed += verdict.failed(dev.idx, dev.count, dev.score);
      }
    }
    const auto& r = c.report;
    if (c.store_reads != r.loads + r.load_retries) {
      problems.push_back("store reads " + std::to_string(c.store_reads) +
                         " != loads + load_retries " +
                         std::to_string(r.loads + r.load_retries));
    }
    if (w->fault_free && c.compare_calls != pair_count(n)) {
      problems.push_back("compare calls " + std::to_string(c.compare_calls) +
                         " != C(n,2) " + std::to_string(pair_count(n)));
    }
    if (!c.journal_matches) {
      problems.push_back("journal replay differs from delivered multiset");
    }
  }
  if (failed > 0) problems.push_back(std::to_string(failed) + " failed pairs");
  for (const auto& p : problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }
  std::fprintf(stderr,
               "%s: %zu calls, %u items; serial reference %.3f s for %zu "
               "pairs (%.0f pairs/s)\n",
               opt.workload.c_str(), calls.size(), n, ref.serial_s,
               ref.pairs.size(), ref.pairs.size() / ref.serial_s);

  // --- metrics ---
  // The first call warms the process up (page faults, thread stacks, the
  // allocator's arenas); the medians are over the calls after it.
  const std::span<const CallRecord> timed(calls.begin() + 1, calls.end());
  std::vector<Metric> metrics;
  if (!opt.trace) {
    std::vector<double> pps, rss_mib, mib;
    for (const auto& c : timed) {
      pps.push_back(static_cast<double>(pair_count(n)) / c.wall_s);
      rss_mib.push_back(c.peak_rss_mib);
      mib.push_back(static_cast<double>(c.store_read_bytes) / kMiB);
    }
    metrics = {{"pairs_per_s", median(pps), "pairs/s"},
               {"setup_s", setup_s, "s"},
               {"peak_rss_mib", median(rss_mib), "MiB"},
               {"store_read_mib", median(mib), "MiB"}};
  } else {
    std::vector<std::vector<Metric>> per_call;
    for (const auto& c : timed) per_call.push_back(layer_metrics(c, n));
    metrics = per_call.front();
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      std::vector<double> values;
      for (const auto& pc : per_call) values.push_back(pc[m].value);
      metrics[m].value = median(values);
    }
    const auto [crc_us, hop_us] = probe_mesh(*w, 0);
    metrics.push_back({"mesh.frame_crc_us", crc_us, "us"});
    metrics.push_back({"mesh.hop_us", hop_us, "us"});
    if (!opt.trace_out.empty()) {
      write_chrome_trace(opt.trace_out, first_call_spans);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", m ? ", " : "",
                metrics[m].name.c_str(), metrics[m].value,
                metrics[m].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 2;
  }
}
