#include "src/pony/pony_module.h"

#include "src/util/logging.h"

namespace snap {

std::unique_ptr<Engine> PonyModule::RestoreEngine(
    const std::string& engine_name, StateReader* state, Engine* old_engine) {
  auto* old_pony = dynamic_cast<PonyEngine*>(old_engine);
  SNAP_CHECK(old_pony != nullptr) << "restore of non-Pony engine";
  // The new engine keeps the old engine's fabric address so peers' flows
  // and the NIC steering key remain valid.
  auto fresh = std::make_unique<PonyEngine>(
      engine_name, sim_, nic_, old_pony->engine_id(), pony_params_,
      timely_params_, directory_);
  fresh->DeserializeState(state);
  // Client channels live in shared memory and survive the upgrade
  // ("authenticated application connections remain established"): rebind
  // them to the new engine and re-register their memory regions.
  PonyClient* old_sink = old_pony->default_sink();
  std::vector<PonyClient*> clients = old_pony->clients();
  for (PonyClient* client : clients) {
    client->Rebind(fresh.get());
    fresh->AttachClient(client);
  }
  if (old_sink != nullptr) {
    fresh->SetDefaultSink(old_sink);
  }
  for (PonyClient* client : clients) {
    // Region registrations are re-established from the (still-mapped)
    // shared memory segments.
    for (const auto& [region_id, region_ptr] :
         RegionsOf(client)) {
      fresh->RegisterRegion(region_ptr);
    }
  }
  return fresh;
}

std::vector<std::pair<uint64_t, MemoryRegion*>> PonyModule::RegionsOf(
    PonyClient* client) {
  std::vector<std::pair<uint64_t, MemoryRegion*>> out;
  client->ForEachRegion([&out](uint64_t id, MemoryRegion* region) {
    out.emplace_back(id, region);
  });
  return out;
}

std::unique_ptr<PonyClient> PonyModule::CreateClient(
    PonyEngine* engine, const std::string& app_name) {
  uint64_t client_id = GlobalClientId(nic_->host_id(), next_client_id_++);
  auto client = std::make_unique<PonyClient>(app_name, client_id, engine,
                                             app_params_);
  engine->AttachClient(client.get());
  return client;
}

}  // namespace snap
