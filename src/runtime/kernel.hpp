// Kernel objects and the kernel registry.
//
// GrCUDA builds kernels from source strings at run time via NVRTC; here a
// kernel name resolves to a registered host implementation (its functional
// semantics) plus a cost descriptor (its timing/profiling semantics). The
// invocation syntax mirrors GrCUDA's
//     K = build_kernel(CODE, "square", "pointer, sint32")
//     K(num_blocks, num_threads)(X, N)
#pragma once

#include <array>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "runtime/nidl.hpp"
#include "runtime/value.hpp"
#include "sim/op.hpp"

namespace psched::rt {

class Context;

/// Read-only view over an invocation's argument list used by kernel host
/// implementations and cost functions.
class ArgsView {
 public:
  ArgsView(std::span<const Value> values, bool functional)
      : values_(values), functional_(functional) {}

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] const Value& at(std::size_t i) const;
  [[nodiscard]] bool is_array(std::size_t i) const {
    return at(i).is_array();
  }
  [[nodiscard]] std::size_t array_len(std::size_t i) const {
    return at(i).as_array().size();
  }
  [[nodiscard]] std::int64_t i64(std::size_t i) const {
    return at(i).as_int();
  }
  [[nodiscard]] double f64(std::size_t i) const { return at(i).as_float(); }
  [[nodiscard]] bool functional() const { return functional_; }

  /// Typed mutable span over argument `i`'s host storage (allocating it on
  /// first use). Only valid in functional mode.
  template <typename T>
  [[nodiscard]] std::span<T> span(std::size_t i) const {
    ArrayState* s = mutable_state(i);
    if (dtype_of_v<T> != s->dtype) {
      throw sim::ApiError("ArgsView: element type mismatch on argument " +
                          std::to_string(i));
    }
    s->ensure_host();
    return {reinterpret_cast<T*>(s->host.data()), s->size};
  }
  template <typename T>
  [[nodiscard]] std::span<const T> cspan(std::size_t i) const {
    return span<T>(i);
  }

 private:
  [[nodiscard]] ArrayState* mutable_state(std::size_t i) const;

  std::span<const Value> values_;
  bool functional_;
};

/// A registered kernel: name + functional implementation + cost model.
struct KernelDef {
  std::string name;
  /// Functional host implementation ("device" semantics; runs at the
  /// simulated completion time, so ordering follows the schedule).
  std::function<void(const sim::LaunchConfig&, const ArgsView&)> host_fn;
  /// Cost descriptor: counters driving simulated timing and Fig. 12
  /// metrics. Must not depend on array *contents*, only on shapes/scalars.
  std::function<sim::KernelProfile(const sim::LaunchConfig&, const ArgsView&)>
      cost_fn;
};

class KernelRegistry {
 public:
  void add(KernelDef def);
  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] const KernelDef& get(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const { return defs_.size(); }

 private:
  std::map<std::string, KernelDef> defs_;
};

class ConfiguredKernel;

/// A kernel bound to an execution context and a NIDL signature.
class Kernel {
 public:
  Kernel() = default;

  [[nodiscard]] const std::string& name() const { return def_->name; }
  [[nodiscard]] const std::vector<ParamSpec>& signature() const {
    return params_;
  }

  /// GrCUDA-style 1D configuration: K(num_blocks, num_threads).
  [[nodiscard]] ConfiguredKernel operator()(long num_blocks,
                                            long num_threads) const;
  /// Full 2D/3D configuration.
  [[nodiscard]] ConfiguredKernel configure(sim::LaunchConfig cfg) const;
  /// History-driven 1D configuration over `work_items` elements: the block
  /// size comes from the context's execution-history tuner (the paper's
  /// future-work heuristic, section VI), the grid covers the data.
  [[nodiscard]] ConfiguredKernel autotuned(long work_items) const;

 private:
  friend class Context;
  friend class ConfiguredKernel;
  Kernel(Context* ctx, const KernelDef* def, std::vector<ParamSpec> params)
      : ctx_(ctx), def_(def), params_(std::move(params)) {}

  Context* ctx_ = nullptr;
  const KernelDef* def_ = nullptr;
  std::vector<ParamSpec> params_;
};

/// A kernel with a launch configuration, ready to be invoked on arguments.
class ConfiguredKernel {
 public:
  /// Invoke with DeviceArray / scalar arguments; registers the computation
  /// with the scheduler and returns immediately (asynchronously).
  template <typename... Args>
  void operator()(Args&&... args) const {
    const std::array<Value, sizeof...(Args)> values{
        make_value(std::forward<Args>(args))...};
    launch(values);
  }

  /// Invoke on an argument list (copied only when the context executes
  /// kernels functionally and must keep it until completion).
  void launch(std::span<const Value> values) const;

  [[nodiscard]] const sim::LaunchConfig& config() const { return cfg_; }

 private:
  friend class Kernel;
  ConfiguredKernel(const Kernel* kernel, sim::LaunchConfig cfg)
      : kernel_(kernel), cfg_(cfg) {}

  const Kernel* kernel_;
  sim::LaunchConfig cfg_;
};

}  // namespace psched::rt
