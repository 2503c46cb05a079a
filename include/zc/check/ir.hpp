#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "zc/core/mapping.hpp"
#include "zc/core/target_region.hpp"
#include "zc/mem/address.hpp"

namespace zc::sim {
class Scheduler;
}

namespace zc::check {

/// One operation of the recorded offload stream. The IR deliberately keeps
/// only the *shape* of the program — which construct, which ranges, which
/// map types and access modes — and none of its timing, so the analyzer's
/// verdicts are independent of scheduling, jitter, and stress seeds.
enum class OpKind {
  HostFree,    ///< host_free(range)
  HostTouch,   ///< host_first_touch (a host-side write of the range)
  HostRead,    ///< host_read (a modeled host-side read of the range)
  DataBegin,   ///< target_data_begin(maps)
  DataEnd,     ///< target_data_end(maps)
  EnterData,   ///< target enter data(maps)
  ExitData,    ///< target exit data(maps)
  UpdateTo,    ///< target update to(map)
  UpdateFrom,  ///< target update from(map)
  Kernel,      ///< omp target (maps entered, kernel ran, maps exited) or,
               ///< with `nowait`, the dispatch half of omp target nowait
  KernelWait,  ///< target_wait: kernel completion + data-end of a nowait op
  DeviceAlloc, ///< omp_target_alloc
  DeviceFree,  ///< omp_target_free
  Memcpy,      ///< omp_target_memcpy (range = dst, src = src)
  Migrate,     ///< migrate_to_device
};

[[nodiscard]] constexpr const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::HostFree:
      return "host_free";
    case OpKind::HostTouch:
      return "host_touch";
    case OpKind::HostRead:
      return "host_read";
    case OpKind::DataBegin:
      return "target_data_begin";
    case OpKind::DataEnd:
      return "target_data_end";
    case OpKind::EnterData:
      return "target_enter_data";
    case OpKind::ExitData:
      return "target_exit_data";
    case OpKind::UpdateTo:
      return "target_update_to";
    case OpKind::UpdateFrom:
      return "target_update_from";
    case OpKind::Kernel:
      return "target";
    case OpKind::KernelWait:
      return "target_wait";
    case OpKind::DeviceAlloc:
      return "device_alloc";
    case OpKind::DeviceFree:
      return "device_free";
    case OpKind::Memcpy:
      return "target_memcpy";
    case OpKind::Migrate:
      return "migrate_to_device";
  }
  return "?";
}

/// One map clause of a recorded construct.
struct IrMap {
  mem::AddrRange range;
  omp::MapType type = omp::MapType::ToFrom;
  bool always = false;
};

/// One enclosing-data-environment buffer use of a recorded kernel.
struct IrUse {
  mem::AddrRange range;
  hsa::Access access = hsa::Access::ReadWrite;
};

/// One recorded operation. `ordinal` is the operation's index in its
/// thread's stream — the per-thread program order that is invariant under
/// interleaving perturbation, and therefore the only order the analyzer
/// (and its diagnostics) may rely on.
struct IrOp {
  OpKind kind = OpKind::HostTouch;
  std::uint64_t ordinal = 0;
  int device = 0;
  bool nowait = false;
  /// Pairs a nowait Kernel op with its KernelWait (recorder-issued;
  /// 0 = none). Opaque: only equality is meaningful.
  std::uint64_t token = 0;
  std::string name;  ///< kernel name (Kernel/KernelWait), else empty
  std::vector<IrMap> maps;
  std::vector<IrUse> uses;
  mem::AddrRange range{};  ///< HostFree/Touch/Read, DeviceAlloc/Free dst...
  mem::AddrRange src{};    ///< Memcpy source
};

/// What kind of storage a recorded buffer is — the analyzer treats
/// device-pool memory and declare-target globals as always-present.
enum class BufKind {
  Host,        ///< host_alloc / host_alloc_placed
  DevicePool,  ///< device_alloc (omp_target_alloc)
  Global,      ///< declare-target global
};

/// One allocation the recorded program made (or global the image declared).
/// `thread` and `nth` identify which thread allocated it and how many
/// buffers of the same name that thread had already allocated — the basis
/// of the deterministic symbolic label the reports use instead of raw
/// addresses (which vary across stress seeds).
struct IrBuffer {
  std::string name;
  mem::AddrRange range;
  BufKind kind = BufKind::Host;
  std::string thread;       ///< allocating thread ("" for globals)
  std::uint64_t nth = 0;    ///< per-(thread, name) occurrence index
  std::string label;        ///< unique symbolic label (filled by `seal`)
};

/// One thread's recorded operation stream, in program order.
struct ThreadStream {
  std::string thread;
  std::vector<IrOp> ops;
};

/// The recorded offload IR of one run: per-thread op streams plus the
/// buffer registry. Streams are keyed (and sorted) by thread name; the
/// *relative order of operations across threads is deliberately absent* —
/// it varies run to run, and every analysis over this IR must be a
/// per-thread walk combined with order-free cross-thread set algebra so
/// its output is bit-identical across stress seeds.
struct OffloadIR {
  std::vector<ThreadStream> threads;  ///< sorted by thread name
  std::vector<IrBuffer> buffers;      ///< sorted by (base address)
  std::uint64_t page_bytes = 2ULL << 20;

  /// Buffer containing `addr`, or nullptr. Buffers never overlap (the
  /// simulator's address space is a bump allocator with guard pages).
  [[nodiscard]] const IrBuffer* find(mem::VirtAddr addr) const;
  /// Deterministic "label[+offset:bytes]" rendering of a range.
  [[nodiscard]] std::string describe(mem::AddrRange range) const;

  [[nodiscard]] std::uint64_t op_count() const;
};

/// Record-only observer the `OffloadRuntime` feeds when `OMPX_APU_CHECK`
/// (or `OMPX_APU_RACE_CHECK=...:pruned`) is active. Purely passive: it
/// never advances virtual time, takes no locks (the simulator is
/// cooperatively scheduled on one OS thread), and never changes what the
/// runtime does — so a recorded run is bit-identical to an unrecorded one.
class Recorder {
 public:
  explicit Recorder(std::uint64_t page_bytes) : page_bytes_{page_bytes} {}

  [[nodiscard]] std::uint64_t page_bytes() const { return page_bytes_; }

  /// Register an allocation or global. Globals pass an empty thread name.
  void add_buffer(sim::Scheduler& sched, mem::AddrRange range,
                  const std::string& name, BufKind kind);
  void add_global(mem::AddrRange range, const std::string& name);

  /// Append an op of `kind` to the calling thread's stream and return it
  /// for the caller to fill in; it stays valid until that thread records
  /// again. Returns nullptr, and builds nothing, while the calling thread
  /// is inside a composite construct (see `push_suppress`).
  [[nodiscard]] IrOp* record(sim::Scheduler& sched, OpKind kind);

  /// Composite constructs (`target`, `target enter/exit data`,
  /// `target_wait`) are recorded as one op and internally reuse the public
  /// data-begin/data-end entry points; the suppression depth keeps those
  /// nested records out of the stream. Per-thread: the runtime yields
  /// inside composite ops, and other threads' records must not be lost.
  void push_suppress(sim::Scheduler& sched);
  void pop_suppress(sim::Scheduler& sched);

  /// Next nowait-pairing token for the calling thread.
  [[nodiscard]] std::uint64_t issue_token(sim::Scheduler& sched);

  /// Tie the recording to its source: while `source` is alive, a runtime
  /// may still record here. `OffloadRuntime::set_recorder` passes a token
  /// that lives exactly as long as the runtime.
  void set_source(std::weak_ptr<const void> source) {
    source_ = std::move(source);
  }

  /// Seal the recording into an analyzable IR: sort streams by thread
  /// name, sort buffers by base, and assign each buffer its deterministic
  /// symbolic label (the plain name when unique run-wide, otherwise
  /// "name@thread#nth"). While the source lives the IR is a copy, so a
  /// build on a live stack (to count ops) and one after teardown (to
  /// analyze) both see the whole recording. Once the source is gone the
  /// ops and buffers move into the IR, so a finished recording is never
  /// held twice.
  [[nodiscard]] OffloadIR build();

 private:
  struct RawStream {
    std::string thread;
    std::vector<IrOp> ops;
    int suppress = 0;
    std::uint64_t tokens = 0;
  };
  RawStream& stream_for(sim::Scheduler& sched);
  /// `build`'s body: moves the ops and buffers into the IR.
  [[nodiscard]] OffloadIR seal();

  static constexpr std::uint32_t kNoStream = UINT32_MAX;

  std::uint64_t page_bytes_;
  /// Index into `streams_` by thread id + 1; slot 0 is "<main>", the
  /// stream of ops issued outside any virtual thread.
  std::vector<std::uint32_t> by_thread_;
  std::vector<RawStream> streams_;
  std::vector<IrBuffer> buffers_;
  std::weak_ptr<const void> source_;
};

/// RAII suppression scope used by the runtime's composite entry points.
class SuppressScope {
 public:
  SuppressScope(Recorder* rec, sim::Scheduler& sched)
      : rec_{rec}, sched_{&sched} {
    if (rec_ != nullptr) {
      rec_->push_suppress(*sched_);
    }
  }
  ~SuppressScope() {
    if (rec_ != nullptr) {
      rec_->pop_suppress(*sched_);
    }
  }
  SuppressScope(const SuppressScope&) = delete;
  SuppressScope& operator=(const SuppressScope&) = delete;

 private:
  Recorder* rec_;
  sim::Scheduler* sched_;
};

}  // namespace zc::check
