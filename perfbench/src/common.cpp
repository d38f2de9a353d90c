// Allocation counting, statistics, the result line and the span store.

#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <queue>
#include <string>

#include "bench.hpp"

// --- allocation counting ----------------------------------------------------
// Counting shims for the replaceable allocation functions.  Every simulation
// the harness measures runs on the main thread, so a plain counter is exact
// for the measured passes (batch::Runner with one worker runs inline).

namespace {
std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* counted_alloc(std::size_t n, std::align_val_t align) {
  ++g_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), n != 0 ? n : 1) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t a) { return counted_alloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return counted_alloc(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t allocs() { return g_allocs; }

double peak_rss_mb() {
  // VmHWM belongs to this process image.  ru_maxrss would not do: Linux
  // carries it across execve, so it reports the launcher's peak (run.py's
  // Python interpreter) whenever that is the larger.
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- reference kernel -------------------------------------------------------

namespace {
volatile std::uint64_t g_reference_sink = 0;
}  // namespace

double reference_ns_per_event(double budget_s) {
  // The shape of a discrete-event run: a binary-heap event queue, a node
  // table visited in data-dependent order, and a
  // small allocation every eighth event.  The table is mapped here and
  // unmapped on return rather than taken from malloc, so the kernel leaves
  // the heap the simulator allocates from as it found it.
  constexpr std::size_t kNodes = std::size_t{1} << 17;  // 1 MiB of state
  constexpr std::size_t kPending = 4096;
  constexpr std::uint64_t kChunk = 20000;
  constexpr std::size_t kBytes = kNodes * sizeof(std::uint64_t);
  void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc{};
  auto* nodes = static_cast<std::uint64_t*>(mem);
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::vector<std::unique_ptr<std::uint64_t[]>> blocks(256);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto step = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::size_t i = 0; i < kNodes; ++i) nodes[i] = step();
  for (std::size_t i = 0; i < kPending; ++i) {
    queue.emplace(step() & 0xffff, static_cast<std::uint32_t>(i));
  }
  std::uint64_t events = 0;
  const double t0 = now();
  double elapsed = 0;
  do {
    for (std::uint64_t e = events; e < events + kChunk; ++e) {
      const Event ev = queue.top();
      queue.pop();
      std::uint64_t& state = nodes[ev.second];
      state = state * 0x2545f4914f6cdd1dULL + ev.first;
      const auto next = static_cast<std::uint32_t>((state >> 17) % kNodes);
      nodes[next] ^= state;
      queue.emplace(ev.first + 1 + (state & 1023), next);
      if ((e & 7) == 0) {
        auto& slot = blocks[(e >> 3) & 255];
        slot = std::make_unique<std::uint64_t[]>(8);
        slot[0] = state;
      }
    }
    events += kChunk;
    elapsed = now() - t0;
  } while (elapsed < budget_s);
  g_reference_sink = g_reference_sink + queue.top().first + nodes[0];
  munmap(mem, kBytes);
  return elapsed * 1e9 / static_cast<double>(events);
}

// --- CpuRotation ------------------------------------------------------------

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (turns_ == 0) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int c : cpus_) CPU_SET(c, &mask);
  sched_setaffinity(0, sizeof(mask), &mask);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus_[turns_++ % cpus_.size()], &mask);
  sched_setaffinity(0, sizeof(mask), &mask);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double time_per_call(const std::function<void()>& body, std::uint64_t calls,
                     double budget_s, const std::function<void()>& prepare) {
  std::vector<double> per_call;
  const double start = now();
  while (per_call.size() < 9 || now() - start < budget_s) {
    if (prepare) prepare();
    const double t0 = now();
    body();
    per_call.push_back((now() - t0) / static_cast<double>(calls));
  }
  return median(per_call);
}

// --- Report -----------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
  std::printf("  %-28s %16.6f %s\n", name.c_str(), value, unit.c_str());
}

void Report::fail(const std::string& why) {
  ++failed_;
  std::printf("FAILED: %s\n", why.c_str());
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    // %.17g keeps every digit the double holds.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// --- Spans ------------------------------------------------------------------

int Spans::open(std::string name, int parent) {
  spans_.push_back(Span{std::move(name), parent, now(), -1.0});
  return static_cast<int>(spans_.size() - 1);
}

void Spans::close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

std::string Spans::json() const {
  std::string out = "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  {\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                  "\"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                  i, s.parent, s.name.c_str(), (s.start - origin_) * 1e6,
                  (s.end - origin_) * 1e6, i + 1 < spans_.size() ? "," : "");
    out += line;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
