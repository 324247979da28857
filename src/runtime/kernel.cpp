#include "runtime/kernel.hpp"

#include <algorithm>

#include "runtime/execution_context.hpp"

namespace psched::rt {

const Value& ArgsView::at(std::size_t i) const {
  if (i >= values_.size()) {
    throw sim::ApiError("ArgsView: argument index " + std::to_string(i) +
                        " out of range");
  }
  return values_[i];
}

ArrayState* ArgsView::mutable_state(std::size_t i) const {
  const Value& v = at(i);
  if (!v.is_array()) {
    throw sim::ApiError("ArgsView: argument " + std::to_string(i) +
                        " is not an array");
  }
  if (!functional_) {
    throw sim::ApiError(
        "ArgsView: host data access requires functional mode");
  }
  return v.as_array().state();
}

void KernelRegistry::add(KernelDef def) {
  if (def.name.empty()) throw sim::ApiError("KernelRegistry: empty name");
  if (!def.cost_fn) {
    throw sim::ApiError("KernelRegistry: kernel '" + def.name +
                        "' has no cost model");
  }
  if (defs_.count(def.name) != 0) {
    throw sim::ApiError("KernelRegistry: duplicate kernel '" + def.name + "'");
  }
  defs_.emplace(def.name, std::move(def));
}

bool KernelRegistry::contains(const std::string& name) const {
  return defs_.count(name) != 0;
}

const KernelDef& KernelRegistry::get(const std::string& name) const {
  auto it = defs_.find(name);
  if (it == defs_.end()) {
    throw sim::ApiError("KernelRegistry: unknown kernel '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> KernelRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(defs_.size());
  for (const auto& [name, def] : defs_) out.push_back(name);
  return out;
}

ConfiguredKernel Kernel::operator()(long num_blocks, long num_threads) const {
  return configure(sim::LaunchConfig::linear(num_blocks, num_threads));
}

ConfiguredKernel Kernel::configure(sim::LaunchConfig cfg) const {
  if (ctx_ == nullptr) throw sim::ApiError("Kernel: default-constructed");
  if (cfg.blocks() <= 0 || cfg.threads_per_block() <= 0) {
    throw sim::ApiError("Kernel: non-positive launch configuration");
  }
  if (cfg.threads_per_block() > 1024) {
    throw sim::ApiError("Kernel: more than 1024 threads per block");
  }
  return ConfiguredKernel(this, cfg);
}

ConfiguredKernel Kernel::autotuned(long work_items) const {
  if (ctx_ == nullptr) throw sim::ApiError("Kernel: default-constructed");
  if (work_items <= 0) {
    throw sim::ApiError("Kernel: autotuned() needs a positive work size");
  }
  const long block = ctx_->tuner().recommend(
      def_->name, static_cast<double>(work_items));
  const long blocks =
      std::min<long>((work_items + block - 1) / block, 65535);
  return configure(sim::LaunchConfig::linear(std::max<long>(blocks, 1), block));
}

void ConfiguredKernel::launch(std::span<const Value> values) const {
  kernel_->ctx_->submit_kernel(*kernel_, cfg_, values);
}

}  // namespace psched::rt
