// A distributed read-mostly key-value store over one-sided operations —
// the data-analytics pattern from Section 5.4. The server publishes a
// hash-indexed indirection table plus a value heap in a shared region;
// clients look keys up with ONE batched indirect read and zero server-side
// application involvement. A conventional two-sided GET is included for
// comparison.
//
//   ./build/examples/kv_store
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/apps/simhost.h"

using namespace snap;

namespace {

// Server-side layout inside one shared region:
//   [ table: kBuckets u64 offsets ][ value heap: kValueSize slots ]
constexpr uint64_t kBuckets = 1024;
constexpr uint64_t kValueSize = 64;

uint64_t BucketOf(const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (char c : key) {
    h = (h ^ static_cast<uint64_t>(c)) * 1099511628211ull;
  }
  return h % kBuckets;
}

class KvServer {
 public:
  KvServer(PonyClient* app) : app_(app) {
    region_ = app->RegisterRegion(kBuckets * 8 + kBuckets * kValueSize,
                                  /*allow_remote_write=*/false);
    mem_ = app->region(region_);
  }

  // The application fills the indirection table (Section 3.2: an
  // "application-filled indirection table").
  void Put(const std::string& key, const std::string& value) {
    uint64_t bucket = BucketOf(key);
    uint64_t slot_offset = kBuckets * 8 + bucket * kValueSize;
    std::memset(mem_->data.data() + slot_offset, 0, kValueSize);
    std::memcpy(mem_->data.data() + slot_offset, value.data(),
                std::min<size_t>(value.size(), kValueSize - 1));
    std::memcpy(mem_->data.data() + bucket * 8, &slot_offset, 8);
  }

  uint64_t region() const { return region_; }

 private:
  PonyClient* app_;
  uint64_t region_ = 0;
  MemoryRegion* mem_ = nullptr;
};

}  // namespace

int main() {
  Simulator sim(2);
  Fabric fabric(&sim, NicParams{});
  PonyDirectory directory;
  SimHostOptions options;
  options.group.mode = SchedulingMode::kDedicatedCores;
  options.group.dedicated_cores = {0};
  SimHost server_host(&sim, &fabric, &directory, options);
  SimHost client_host(&sim, &fabric, &directory, options);

  PonyEngine* server_engine = server_host.CreatePonyEngine("kv_engine");
  auto server_app = server_host.CreateClient(server_engine, "kv_server");
  PonyEngine* client_engine = client_host.CreatePonyEngine("cli_engine");
  auto client_app = client_host.CreateClient(client_engine, "kv_client");

  KvServer server(server_app.get());
  server.Put("snap", "a microkernel approach to host networking");
  server.Put("pony", "a reliable transport and communications stack");
  server.Put("timely", "rtt-gradient congestion control");

  CpuCostSink cost;
  // GET via one batched indirect read: table lookup + value fetch happen
  // entirely inside the remote engine.
  auto get = [&](const std::string& key) -> std::string {
    uint64_t bucket = BucketOf(key);
    client_app->IndirectRead(server_engine->address(), server.region(),
                             /*first_index=*/bucket, /*batch=*/1,
                             /*length=*/kValueSize, &cost);
    sim.RunFor(2 * kMsec);
    auto completion = client_app->PollCompletion(&cost);
    if (!completion.has_value() ||
        completion->status != PonyOpStatus::kOk) {
      return "<error>";
    }
    return std::string(
        reinterpret_cast<const char*>(completion->data.data()));
  };

  for (const char* key : {"snap", "pony", "timely"}) {
    std::printf("GET %-7s -> %s\n", key, get(key).c_str());
  }

  // Batched multi-GET: adjacent buckets in one operation (the production
  // pattern: "a custom batched indirect read... a batch of eight
  // indirections locally rather than over the network").
  uint64_t first = BucketOf("snap");
  client_app->IndirectRead(server_engine->address(), server.region(), first,
                           /*batch=*/8, kValueSize, &cost);
  sim.RunFor(2 * kMsec);
  auto completion = client_app->PollCompletion(&cost);
  std::printf("batched GET of 8 buckets: status=%d, %lld bytes in one op\n",
              completion.has_value()
                  ? static_cast<int>(completion->status)
                  : -1,
              completion.has_value()
                  ? static_cast<long long>(completion->length)
                  : -1);

  std::printf(
      "server app CPU: %.3f ms (zero per-GET involvement), engine executed "
      "%lld one-sided ops (%lld indirections)\n",
      ToMsec(server_host.AppCpuNs()),
      static_cast<long long>(server_engine->stats().ops_executed),
      static_cast<long long>(server_engine->stats().indirections_executed));
  std::printf("kv_store OK\n");
  return 0;
}
