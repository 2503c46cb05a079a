#include "zc/check/ir.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "zc/sim/scheduler.hpp"

namespace zc::check {

const IrBuffer* OffloadIR::find(mem::VirtAddr addr) const {
  // `buffers` is sorted by base and allocations never overlap (bump
  // allocator with guard pages), so a binary search suffices.
  auto it = std::upper_bound(
      buffers.begin(), buffers.end(), addr.value,
      [](std::uint64_t a, const IrBuffer& b) { return a < b.range.base.value; });
  if (it == buffers.begin()) {
    return nullptr;
  }
  --it;
  return it->range.contains(addr) ? &*it : nullptr;
}

std::string OffloadIR::describe(mem::AddrRange range) const {
  const IrBuffer* buf = find(range.base);
  // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
  // with a false-positive -Wrestrict.
  if (buf == nullptr) {
    std::string out = "<unknown:";
    out += std::to_string(range.bytes);
    out += "B>";
    return out;
  }
  const std::uint64_t off = range.base.value - buf->range.base.value;
  std::string out = buf->label;
  if (off != 0 || range.bytes != buf->range.bytes) {
    out += '+';
    out += std::to_string(off);
    out += ':';
    out += std::to_string(range.bytes);
    out += 'B';
  }
  return out;
}

std::uint64_t OffloadIR::op_count() const {
  std::uint64_t n = 0;
  for (const ThreadStream& t : threads) {
    n += t.ops.size();
  }
  return n;
}

Recorder::RawStream& Recorder::stream_for(sim::Scheduler& sched) {
  // Ops issued outside any virtual thread (stack construction, teardown)
  // land in a synthetic "<main>" stream so nothing is ever dropped.
  const bool in = sched.in_thread();
  const std::size_t slot =
      in ? static_cast<std::size_t>(sched.current().id()) + 1 : 0;
  if (slot >= by_thread_.size()) {
    by_thread_.resize(slot + 1, kNoStream);
  }
  std::uint32_t& index = by_thread_[slot];
  if (index == kNoStream) {
    index = static_cast<std::uint32_t>(streams_.size());
    streams_.push_back(RawStream{in ? sched.current().name() : "<main>",
                                 {}, 0, 0});
  }
  return streams_[index];
}

void Recorder::add_buffer(sim::Scheduler& sched, mem::AddrRange range,
                          const std::string& name, BufKind kind) {
  RawStream& s = stream_for(sched);
  IrBuffer buf;
  buf.name = name;
  buf.range = range;
  buf.kind = kind;
  buf.thread = s.thread;
  buffers_.push_back(std::move(buf));
}

void Recorder::add_global(mem::AddrRange range, const std::string& name) {
  IrBuffer buf;
  buf.name = name;
  buf.range = range;
  buf.kind = BufKind::Global;
  buffers_.push_back(std::move(buf));
}

IrOp* Recorder::record(sim::Scheduler& sched, OpKind kind) {
  RawStream& s = stream_for(sched);
  if (s.suppress > 0) {
    return nullptr;
  }
  IrOp& op = s.ops.emplace_back();
  op.kind = kind;
  op.ordinal = s.ops.size() - 1;
  return &op;
}

void Recorder::push_suppress(sim::Scheduler& sched) {
  ++stream_for(sched).suppress;
}

void Recorder::pop_suppress(sim::Scheduler& sched) {
  --stream_for(sched).suppress;
}

std::uint64_t Recorder::issue_token(sim::Scheduler& sched) {
  // Tokens are (thread, counter) pairs flattened into 64 bits; the stream
  // index is only used intra-run, pairing a nowait dispatch with its wait.
  RawStream& s = stream_for(sched);
  const auto idx = static_cast<std::uint64_t>(&s - streams_.data());
  return (idx << 32) | ++s.tokens;
}

OffloadIR Recorder::build() {
  // A runtime that is still alive may record more: seal a copy.
  return source_.expired() ? seal() : Recorder{*this}.seal();
}

OffloadIR Recorder::seal() {
  OffloadIR ir;
  ir.page_bytes = page_bytes_;
  ir.threads.reserve(streams_.size());
  for (RawStream& s : streams_) {
    if (s.ops.empty()) {
      continue;
    }
    ir.threads.push_back(ThreadStream{s.thread, std::move(s.ops)});
  }
  ir.buffers = std::move(buffers_);
  buffers_.clear();
  std::sort(ir.threads.begin(), ir.threads.end(),
            [](const ThreadStream& a, const ThreadStream& b) {
              return a.thread < b.thread;
            });

  // Assign per-(thread, name) occurrence indices in allocation order —
  // per-thread program order, so invariant across stress seeds — then a
  // label that is the bare name when unique run-wide. The keys view the
  // buffers' own strings, which stay put until the sort below.
  using Key = std::pair<std::string_view, std::string_view>;
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      const std::hash<std::string_view> h;
      return h(k.first) * 31 + h(k.second);
    }
  };
  std::unordered_map<Key, std::uint64_t, KeyHash> occurrence;
  std::unordered_map<std::string_view, std::uint64_t> by_name;
  for (IrBuffer& b : ir.buffers) {
    b.nth = occurrence[{b.thread, b.name}]++;
    ++by_name[b.name];
  }
  for (IrBuffer& b : ir.buffers) {
    b.label = b.name;
    if (by_name[b.name] > 1) {
      b.label += '@';
      b.label += b.thread.empty() ? std::string_view{"<image>"}
                                  : std::string_view{b.thread};
      b.label += '#';
      b.label += std::to_string(b.nth);
    }
  }
  std::sort(ir.buffers.begin(), ir.buffers.end(),
            [](const IrBuffer& a, const IrBuffer& b) {
              return a.range.base.value < b.range.base.value;
            });
  return ir;
}

}  // namespace zc::check
