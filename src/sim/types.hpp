// Core identifier and value types shared across the vgpu simulator.
//
// The simulator models virtual time in microseconds with double precision.
// All entity identifiers are strongly-typed-by-convention 64/32-bit integers;
// negative values mean "invalid"/"none".
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace psched::sim {

/// Virtual time, in microseconds since simulation start.
using TimeUs = double;

/// Device operation identifier (kernel launch, copy, marker, ...).
using OpId = std::int64_t;
/// CUDA-like stream identifier. Stream 0 is the default stream.
using StreamId = std::int32_t;
/// CUDA-like event identifier.
using EventId = std::int64_t;
/// Managed (unified-memory) allocation identifier.
using ArrayId = std::int64_t;
/// GPU index inside a Machine roster. Device 0 always exists.
using DeviceId = std::int32_t;
/// Tenant (application) identifier for multi-app scheduling. Tenant 0 is
/// the default tenant every untagged entity belongs to, so single-app
/// programs never see tenancy at all.
using TenantId = std::int32_t;

inline constexpr OpId kInvalidOp = -1;
inline constexpr StreamId kInvalidStream = -1;
inline constexpr StreamId kDefaultStream = 0;
inline constexpr EventId kInvalidEvent = -1;
inline constexpr ArrayId kInvalidArray = -1;
inline constexpr DeviceId kInvalidDevice = -1;
inline constexpr DeviceId kDefaultDevice = 0;
inline constexpr TenantId kInvalidTenant = -1;
inline constexpr TenantId kDefaultTenant = 0;
/// Residency masks are 32-bit; a Machine holds at most this many GPUs.
inline constexpr int kMaxDevices = 32;
/// Upper bound on tenant ids. Tenant ids index dense accounting vectors
/// (engine counters, per-(tenant, device) quota/usage tables), so they
/// must stay small integers — the TenantManager hands them out densely
/// from 0, and the bound turns a wild id into ApiError instead of a
/// multi-gigabyte resize.
inline constexpr TenantId kMaxTenants = 4096;
inline constexpr TimeUs kTimeInfinity = std::numeric_limits<TimeUs>::infinity();

/// Base class for every error raised by the simulator or the runtime.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised on misuse of the simulated CUDA API (bad stream, bad event, ...).
class ApiError : public Error {
 public:
  using Error::Error;
};

/// Raised on misuse of the transactional-ingestion surface: opening a
/// transaction while one is already open, or committing with none.
/// Structured (which call failed, the state it found, how many ops
/// the open transaction had ingested) and — critically — recoverable: the
/// throw happens before any engine state changes, so the concurrent
/// ingestion front-end's drain threads catch it, fail the offending item's
/// completion token, and keep draining.
class TransactionError : public ApiError {
 public:
  enum class Kind {
    AlreadyOpen,  ///< begin_transaction found one open
    NotOpen,      ///< commit_transaction found none
  };

  TransactionError(Kind kind_, const char* call_, std::size_t pending_ops_)
      : ApiError(std::string(call_) +
                 (kind_ == Kind::AlreadyOpen
                      ? ": a transaction is already open (" +
                            std::to_string(pending_ops_) +
                            " ops ingested; commit_transaction first)"
                      : std::string(
                            ": no open transaction (begin_transaction "
                            "first)"))),
        kind(kind_),
        call(call_),
        pending_ops(pending_ops_) {}

  Kind kind;
  /// The failing entry point (static string: "begin_transaction", ...).
  const char* call;
  /// Ops the open transaction had already ingested at the throw
  /// (Kind::AlreadyOpen only; 0 otherwise).
  std::size_t pending_ops;
};

/// Latency service class a tenant declares in its TenantSpec. Batch
/// tenants want throughput (their fair share, eventually); LatencyCritical
/// tenants additionally declare a p99 completion-latency target that the
/// QoS subsystem (sim/qos.hpp) enforces with virtual deadlines, feedback
/// re-weighting and admission control.
enum class ServiceClass {
  Batch,            ///< throughput-oriented; no latency target
  LatencyCritical,  ///< declares target_p99_us; EEVDF deadline = target
};

[[nodiscard]] inline const char* to_string(ServiceClass c) {
  switch (c) {
    case ServiceClass::Batch: return "batch";
    case ServiceClass::LatencyCritical: return "latency_critical";
  }
  return "?";
}

/// Raised on an invalid QoS configuration: a LatencyCritical tenant with a
/// non-positive p99 target, admission limits on an unknown tenant, and the
/// like. Thrown before any state changes, so the caller can fix the spec
/// and retry.
class QosError : public ApiError {
 public:
  QosError(const std::string& what, TenantId tenant_)
      : ApiError(what), tenant(tenant_) {}

  TenantId tenant = kInvalidTenant;
};

/// Raised when admission control turns work away at saturation: the
/// tenant's outstanding queue depth or service lag exceeded its configured
/// bound. Structured (who, which class, how deep, how far behind) and —
/// like TransactionError — recoverable: the throw happens before any
/// engine or queue state changes, so the producer can back off and
/// resubmit once the backlog drains.
class AdmissionError : public ApiError {
 public:
  AdmissionError(const char* call_, TenantId tenant_, ServiceClass cls_,
                 long queue_depth_, long depth_limit_, double lag_us_,
                 double lag_limit_us_)
      : ApiError(std::string(call_) + ": admission rejected for tenant " +
                 std::to_string(tenant_) + " (" + to_string(cls_) + "): " +
                 (depth_limit_ >= 0 && queue_depth_ >= depth_limit_
                      ? "queue depth " + std::to_string(queue_depth_) +
                            " >= limit " + std::to_string(depth_limit_)
                      : "lag " + std::to_string(lag_us_) + "us > limit " +
                            std::to_string(lag_limit_us_) + "us")),
        call(call_),
        tenant(tenant_),
        service_class(cls_),
        queue_depth(queue_depth_),
        depth_limit(depth_limit_),
        lag_us(lag_us_),
        lag_limit_us(lag_limit_us_) {}

  /// The rejecting entry point (static string: "submit", "launch", ...).
  const char* call;
  TenantId tenant;
  ServiceClass service_class;
  /// Outstanding items (issued + queued, not yet completed) at the throw.
  long queue_depth;
  /// Configured depth bound (-1 = unbounded; depth did not trip).
  long depth_limit;
  /// Service lag (entitled minus received, in solo-us) at the throw.
  double lag_us;
  /// Configured lag bound (-1 = unbounded; lag did not trip).
  double lag_limit_us;
};

/// Raised when a memory demand cannot be satisfied even after eviction.
/// Device memory is oversubscribable (the paged unified-memory model evicts
/// LRU pages to make room), so this fires only when the working set of a
/// single operation exceeds a device's capacity — or when a managed
/// allocation exceeds the host-side managed heap. Carries the structured
/// accounting that produced the verdict.
class OutOfMemoryError : public ApiError {
 public:
  explicit OutOfMemoryError(const std::string& what)
      : ApiError(what) {}
  /// `device` is the over-committed GPU, or kInvalidDevice for the
  /// host-side managed heap. `requested` is the incoming demand (bytes not
  /// yet resident), `in_use` the bytes currently charged, `capacity` the
  /// hard limit, and `evictable` how many of the charged bytes eviction
  /// could have reclaimed (pinned pages and pages of the faulting
  /// operation itself are not evictable).
  OutOfMemoryError(DeviceId device_, std::size_t requested_,
                   std::size_t in_use_, std::size_t capacity_,
                   std::size_t evictable_, const std::string& what_prefix)
      : OutOfMemoryError(device_, requested_, in_use_, capacity_, evictable_,
                         kInvalidTenant, 0, what_prefix) {}

  /// Multi-tenant form: `tenant` is the requesting application and
  /// `tenant_in_use` the bytes that tenant alone has charged on `device`
  /// (or allocated from the managed heap), so multi-app OOMs are
  /// attributable without replaying the run.
  OutOfMemoryError(DeviceId device_, std::size_t requested_,
                   std::size_t in_use_, std::size_t capacity_,
                   std::size_t evictable_, TenantId tenant_,
                   std::size_t tenant_in_use_, const std::string& what_prefix)
      : ApiError(what_prefix + ": requested " + std::to_string(requested_) +
                 " bytes, resident " + std::to_string(in_use_) + " of " +
                 std::to_string(capacity_) + ", evictable " +
                 std::to_string(evictable_) +
                 (tenant_ == kInvalidTenant
                      ? std::string()
                      : ", tenant " + std::to_string(tenant_) + " holds " +
                            std::to_string(tenant_in_use_)) +
                 (device_ == kInvalidDevice
                      ? std::string(" (managed heap)")
                      : " (device " + std::to_string(device_) + ")")),
        device(device_),
        requested(requested_),
        in_use(in_use_),
        capacity(capacity_),
        evictable(evictable_),
        tenant(tenant_),
        tenant_in_use(tenant_in_use_) {}

  DeviceId device = kInvalidDevice;
  std::size_t requested = 0;
  std::size_t in_use = 0;
  std::size_t capacity = 0;
  std::size_t evictable = 0;
  /// Requesting tenant (kInvalidTenant when the caller did not attribute
  /// the demand) and the bytes that tenant had in use at the throw.
  TenantId tenant = kInvalidTenant;
  std::size_t tenant_in_use = 0;
};

/// CUDA-like 3D extent for grids and blocks.
struct Dim3 {
  long x = 1;
  long y = 1;
  long z = 1;

  [[nodiscard]] constexpr long total() const { return x * y * z; }

  friend constexpr bool operator==(const Dim3&, const Dim3&) = default;
};

/// Kernel launch geometry.
struct LaunchConfig {
  Dim3 grid;
  Dim3 block;
  /// Dynamic + static shared memory per block, in bytes. Together with the
  /// device's per-SM shared memory this limits resident blocks per SM and
  /// therefore occupancy — the "kernels that leave a large amount of shared
  /// memory unused" effect behind the IMG speedup (section V-F).
  long shared_mem_per_block = 0;

  [[nodiscard]] constexpr long blocks() const { return grid.total(); }
  [[nodiscard]] constexpr long threads_per_block() const { return block.total(); }
  [[nodiscard]] constexpr long total_threads() const {
    return blocks() * threads_per_block();
  }

  static constexpr LaunchConfig linear(long num_blocks, long num_threads) {
    return LaunchConfig{{num_blocks, 1, 1}, {num_threads, 1, 1}, 0};
  }

  [[nodiscard]] constexpr LaunchConfig with_shared_mem(long bytes) const {
    LaunchConfig c = *this;
    c.shared_mem_per_block = bytes;
    return c;
  }
};

/// Direction of a PCIe transfer.
enum class CopyDir { HostToDevice, DeviceToHost };

/// Kind of device operation tracked by the engine and the timeline.
enum class OpKind {
  Kernel,    ///< GPU kernel execution
  CopyH2D,   ///< explicit or prefetch host-to-device transfer
  CopyD2H,   ///< device-to-host transfer
  Fault,     ///< on-demand unified-memory migration (page-fault path)
  CopyP2P,   ///< device-to-device transfer over a peer (or staged) link
  Marker,    ///< zero-duration stream marker (event waits)
  Host,      ///< host-side span recorded for timeline visualization
};

[[nodiscard]] inline const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::Kernel: return "kernel";
    case OpKind::CopyH2D: return "h2d";
    case OpKind::CopyD2H: return "d2h";
    case OpKind::Fault: return "fault";
    case OpKind::CopyP2P: return "p2p";
    case OpKind::Marker: return "marker";
    case OpKind::Host: return "host";
  }
  return "?";
}

/// True if the op kind moves data over the interconnect.
[[nodiscard]] inline bool is_transfer(OpKind k) {
  return k == OpKind::CopyH2D || k == OpKind::CopyD2H || k == OpKind::Fault ||
         k == OpKind::CopyP2P;
}

/// True if the op kind serializes on a DMA engine (explicit copies: one in
/// flight per host-link direction / per peer link; faults go through the
/// page-fault machinery instead and may proceed concurrently).
[[nodiscard]] inline bool is_dma_copy(OpKind k) {
  return k == OpKind::CopyH2D || k == OpKind::CopyD2H || k == OpKind::CopyP2P;
}

}  // namespace psched::sim
