#include "zc/race/detector.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "zc/apu/machine.hpp"
#include "zc/sim/scheduler.hpp"

namespace zc::race {

Detector::Detector(Mode mode, std::uint64_t page_bytes)
    : mode_{mode}, page_bytes_{page_bytes} {}

Detector::~Detector() { detach(); }

void Detector::attach(sim::Scheduler& sched) {
  sched_ = &sched;
  sched.set_hooks(this);
}

void Detector::detach() {
  if (sched_ != nullptr && sched_->hooks() == this) {
    sched_->set_hooks(nullptr);
  }
  sched_ = nullptr;
}

int Detector::self_slot() {
  if (sched_ == nullptr || !sched_->in_thread()) {
    return -1;
  }
  return slot_for_thread(sched_->current().id());
}

int Detector::slot_for_thread(int thread_id) {
  const auto it = thread_slot_.find(thread_id);
  if (it != thread_slot_.end()) {
    return it->second;
  }
  // First sighting (the detector was attached after this thread spawned):
  // order it after every drained predecessor, like an outside spawn.
  const int slot = static_cast<int>(actors_.size());
  Actor a;
  a.clock = drain_;
  a.clock.set(slot, 1);
  a.name = sched_->thread(static_cast<std::size_t>(thread_id)).name();
  actors_.push_back(std::move(a));
  thread_slot_.emplace(thread_id, slot);
  return slot;
}

Detector::Actor& Detector::mutate(int slot) {
  Actor& a = actors_[static_cast<std::size_t>(slot)];
  a.snap.reset();
  return a;
}

std::shared_ptr<const VectorClock> Detector::snapshot(int slot) {
  Actor& a = actors_[static_cast<std::size_t>(slot)];
  if (!a.snap) {
    a.snap = std::make_shared<const VectorClock>(a.clock);
  }
  return a.snap;
}

void Detector::on_spawn(int parent_id, int child_id) {
  // Resolve the parent first: a first sighting appends its actor, so the
  // child's slot must be taken from the vector size *after* that.
  const int pslot = parent_id >= 0 ? slot_for_thread(parent_id) : -1;
  const int slot = static_cast<int>(actors_.size());
  Actor a;
  if (pslot >= 0) {
    // Fork edge: the child starts at the parent's frontier, and the
    // parent's subsequent work is not ordered before the child's.
    a.clock = actors_[static_cast<std::size_t>(pslot)].clock;
    mutate(pslot).clock.tick(pslot);
  } else {
    // Spawned outside any virtual thread (before run(), or a later run()
    // round): ordered after every thread that already finished.
    a.clock = drain_;
  }
  a.clock.set(slot, 1);
  a.name = sched_->thread(static_cast<std::size_t>(child_id)).name();
  actors_.push_back(std::move(a));
  thread_slot_[child_id] = slot;
}

void Detector::on_finish(int thread_id) {
  const int slot = slot_for_thread(thread_id);
  Actor& a = actors_[static_cast<std::size_t>(slot)];
  drain_.join(a.clock);
  a.done = true;
}

void Detector::on_release(const void* obj, sim::SyncKind /*kind*/) {
  const int slot = self_slot();
  if (slot < 0) {
    return;
  }
  sync_[obj].join(actors_[static_cast<std::size_t>(slot)].clock);
  mutate(slot).clock.tick(slot);
}

void Detector::on_acquire(const void* obj, sim::SyncKind /*kind*/) {
  const int slot = self_slot();
  if (slot < 0) {
    return;
  }
  const auto it = sync_.find(obj);
  if (it != sync_.end()) {
    mutate(slot).clock.join(it->second);
  }
}

void Detector::on_retire(const void* obj) {
  // A dead object's clock would order the acquirers of whatever object is
  // born next at its address after its releasers.
  sync_.erase(obj);
}

int Detector::on_task_begin(std::string_view what, int device) {
  const int slot = self_slot();
  if (slot < 0) {
    return -1;
  }
  const std::string name = std::string{what} + "@dev" + std::to_string(device);
  // Sequential-dispatch fast path: if this thread's previous task has ended
  // and the thread has synchronized with it (its clock covers the task's
  // epoch — it waited on the completion signal), the previous task happened-
  // before this one, and the slot can be reused at value+1: any accessor
  // covering the new epoch is ordered after the new task, hence after every
  // older task on the slot too. A previous task still in flight (nowait
  // chain) is unordered with this one and keeps its slot.
  if (const auto it = thread_task_slot_.find(slot);
      it != thread_task_slot_.end()) {
    const int ts = it->second;
    Actor& t = actors_[static_cast<std::size_t>(ts)];
    const std::uint64_t v = t.clock.of(ts);
    if (t.done &&
        actors_[static_cast<std::size_t>(slot)].clock.of(ts) >= v) {
      t.clock = actors_[static_cast<std::size_t>(slot)].clock;
      t.clock.set(ts, v + 1);
      t.name = name;
      t.done = false;
      t.snap.reset();
      retired_.erase(ts);
      mutate(slot).clock.tick(slot);
      return ts;
    }
  }
  const int task = static_cast<int>(actors_.size());
  Actor a;
  a.clock = actors_[static_cast<std::size_t>(slot)].clock;
  a.clock.set(task, 1);
  a.name = name;
  a.is_task = true;
  actors_.push_back(std::move(a));
  mutate(slot).clock.tick(slot);
  thread_task_slot_[slot] = task;
  return task;
}

void Detector::on_task_acquire(int task, const void* obj) {
  if (task < 0 || task >= static_cast<int>(actors_.size())) {
    return;
  }
  const auto it = sync_.find(obj);
  if (it != sync_.end()) {
    mutate(task).clock.join(it->second);
  }
}

void Detector::on_task_pages(int task, std::uint64_t first_page,
                             std::uint64_t pages, bool is_write,
                             std::string_view what) {
  if (task < 0 || task >= static_cast<int>(actors_.size())) {
    return;
  }
  stamp_pages(task, first_page, pages, is_write, what);
}

void Detector::on_host_pages(std::uint64_t first_page, std::uint64_t pages,
                             bool is_write, std::string_view what) {
  const int slot = self_slot();
  if (slot < 0) {
    return;
  }
  stamp_pages(slot, first_page, pages, is_write, what);
}

void Detector::stamp_pages(int slot, std::uint64_t first_page,
                           std::uint64_t pages, bool is_write,
                           std::string_view what) {
  if (prune_ != nullptr && prune_->covers_range(first_page, first_page + pages)) {
    pruned_stamps_ += pages;  // whole access statically proven safe
    return;
  }
  for (std::uint64_t p = first_page; p < first_page + pages; ++p) {
    if (prune_ != nullptr && prune_->covers(p)) {
      ++pruned_stamps_;  // statically proven safe: skip the shadow stamp
      continue;
    }
    ++checked_stamps_;
    check(pages_[p], p, slot, is_write, what);
  }
}

void Detector::on_task_end(int task, const void* completion_obj) {
  if (task < 0 || task >= static_cast<int>(actors_.size())) {
    return;
  }
  Actor& a = actors_[static_cast<std::size_t>(task)];
  sync_[completion_obj].join(a.clock);
  a.done = true;
  retired_.insert(task);
  if (++ends_since_compact_ >= kCompactEvery) {
    compact();
  }
}

void Detector::compact() {
  ends_since_compact_ = 0;
  // Pass 1 — discard *ancient* shadow entries. An access covered by the
  // drain frontier and by every unfinished actor's clock is ordered before
  // everything that can still run — and every future actor forks from one
  // of those clocks (or from drain_), so coverage is inherited. Such an
  // access can never be the older half of a race report again; dropping it
  // releases its clock snapshot and, often, the last reference to a
  // retired task's slot. Poisoned shadows report nothing further either
  // way, so their retained accesses are dropped unconditionally.
  std::vector<const VectorClock*> actable;
  for (const Actor& a : actors_) {
    if (!a.done) {
      actable.push_back(&a.clock);
    }
  }
  const auto ancient = [&](const Epoch e) {
    if (!drain_.covers(e)) {
      return false;
    }
    for (const VectorClock* c : actable) {
      if (!c->covers(e)) {
        return false;
      }
    }
    return true;
  };
  const auto sweep = [&](Shadow& sh) {
    if (sh.poisoned) {
      sh.write = Access{};
      sh.reads.clear();
      return;
    }
    if (sh.write.epoch.valid() && ancient(sh.write.epoch)) {
      sh.write = Access{};
    }
    std::erase_if(sh.reads,
                  [&](const Access& r) { return ancient(r.epoch); });
  };
  for (auto& [page, sh] : pages_) {
    sweep(sh);
  }
  // A fully swept shadow is indistinguishable from an absent one — unless
  // it is poisoned, which must persist to keep suppressing reports.
  std::erase_if(pages_, [](const auto& kv) {
    return !kv.second.poisoned && !kv.second.write.epoch.valid() &&
           kv.second.reads.empty();
  });
  // Pass 2 — a retired slot is still *live* while some surviving shadow
  // epoch names it: a future covers() check against that epoch needs the
  // slot's component in the checking actor's clock. Everything else is
  // garbage — a retired task never acts again, and epochs only ever
  // originate from shadows, so a slot absent from every shadow can never
  // be compared against again.
  std::set<int> live;
  const auto note = [&](const Shadow& sh) {
    if (sh.write.epoch.valid() && retired_.contains(sh.write.epoch.slot)) {
      live.insert(sh.write.epoch.slot);
    }
    for (const Access& r : sh.reads) {
      if (retired_.contains(r.epoch.slot)) {
        live.insert(r.epoch.slot);
      }
    }
  };
  for (const auto& [page, sh] : pages_) {
    note(sh);
  }
  const auto dead = [&](int slot) {
    return retired_.contains(slot) && !live.contains(slot);
  };
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    Actor& a = actors_[i];
    const int self = static_cast<int>(i);
    // An actor keeps its own component (its epochs must stay stampable
    // even if it is itself retired); everything dead is dropped.
    if (a.clock.prune([&](int s) { return s != self && dead(s); }) > 0) {
      a.snap.reset();
    }
  }
  drain_.prune(dead);
  for (auto& [obj, clock] : sync_) {
    clock.prune(dead);
  }
  std::erase_if(sync_, [](const auto& kv) { return kv.second.empty(); });
  // Pruned slots exist in no clock but their own, and a retired task's
  // clock is never joined anywhere after its completion release — they
  // cannot re-propagate, so stop tracking them. Still-live slots stay
  // retired and are collected by a later pass.
  std::erase_if(retired_, [&](int s) { return !live.contains(s); });
}

void Detector::check(Shadow& sh, std::uint64_t page, int slot, bool is_write,
                     std::string_view site) {
  if (sh.poisoned) {
    return;
  }
  Actor& a = actors_[static_cast<std::size_t>(slot)];
  const VectorClock& clock = a.clock;
  const Epoch cur{slot, clock.of(slot)};
  // Fast path: a repeat of the access already recorded at this epoch.
  if (is_write && sh.reads.empty() && sh.write.epoch.slot == slot &&
      sh.write.epoch.value == cur.value) {
    return;
  }
  const auto make_access = [&](bool w) {
    return Access{cur, w, a.name, std::string{site}, snapshot(slot)};
  };
  if (sh.write.epoch.valid() && sh.write.epoch.slot != slot &&
      !clock.covers(sh.write.epoch)) {
    report(page, sh.write, make_access(is_write));
    sh.poisoned = true;
    return;
  }
  if (is_write) {
    for (const Access& r : sh.reads) {
      if (r.epoch.slot != slot && !clock.covers(r.epoch)) {
        report(page, r, make_access(true));
        sh.poisoned = true;
        return;
      }
    }
    sh.write = make_access(true);
    sh.reads.clear();
    return;
  }
  // Read: keep one frontier entry per actor; entries that happened-before
  // this read are covered by it (any later conflicting write that races
  // them races this read too) and can be dropped.
  for (Access& r : sh.reads) {
    if (r.epoch.slot == slot) {
      if (r.epoch.value != cur.value) {
        r = make_access(false);
      }
      return;
    }
  }
  std::erase_if(sh.reads,
                [&](const Access& r) { return clock.covers(r.epoch); });
  sh.reads.push_back(make_access(false));
}

void Detector::report(std::uint64_t page, const Access& prev,
                      const Access& cur) {
  const auto rw = [](const Access& a) { return a.is_write ? "write" : "read"; };
  // Canonical endpoint order. Which of the two unordered accesses the
  // detector encounters first is a property of the schedule (stress seeds
  // permute it); sorting by actor/site makes the report — including its
  // message — bit-identical across seeds, so a bug has ONE signature.
  const auto canon_key = [](const Access& a) {
    return std::tie(a.actor, a.site);
  };
  const Access& a = canon_key(cur) < canon_key(prev) ? cur : prev;
  const Access& b = &a == &prev ? cur : prev;
  trace::RaceReport r;
  r.what = page_name(page);
  r.first = trace::RaceEndpoint{a.actor, a.site,
                                a.clock ? a.clock->render() : "{}", a.is_write};
  r.second = trace::RaceEndpoint{b.actor, b.site,
                                 b.clock ? b.clock->render() : "{}",
                                 b.is_write};
  r.time = (sched_ != nullptr && sched_->in_thread()) ? sched_->now()
                                                      : sim::TimePoint{};
  r.message = std::string{trace::to_string(r.kind)} + " on " + r.what + ": " +
              rw(a) + " by '" + a.actor + "' at " + a.site + " " +
              r.first.clock + " is unordered with " + rw(b) + " by '" +
              b.actor + "' at " + b.site + " " + r.second.clock;
  trace_.record(r);
  if (mode_ == Mode::Abort) {
    if (abort_handler_) {
      abort_handler_(trace_.records().back());
    } else {
      throw RaceError(r.message);
    }
  }
}

std::string Detector::page_name(std::uint64_t page) const {
  return "page@" + std::to_string(page * page_bytes_) + "[" +
         std::to_string(page_bytes_) + "]";
}

bool Detector::lock_path(const sim::Mutex* from, const sim::Mutex* to,
                         std::vector<const sim::Mutex*>& path,
                         std::set<const sim::Mutex*>& seen) const {
  if (!seen.insert(from).second) {
    return false;
  }
  path.push_back(from);
  if (from == to) {
    return true;
  }
  const auto it = lock_graph_.find(from);
  if (it != lock_graph_.end()) {
    for (const sim::Mutex* next : it->second.out) {
      if (lock_path(next, to, path, seen)) {
        return true;
      }
    }
  }
  path.pop_back();
  return false;
}

void Detector::on_lock_acquired(const sim::Mutex& m) {
  if (sched_ == nullptr || !sched_->in_thread()) {
    return;
  }
  const std::vector<const sim::Mutex*>& held =
      sched_->current().held_locks();
  if (held.size() < 2) {
    return;
  }
  const sim::Mutex* fresh = &m;
  const std::string& thread = sched_->current().name();
  for (const sim::Mutex* prior : held) {
    if (prior == fresh) {
      continue;
    }
    const auto key = std::pair{prior, fresh};
    if (edge_example_.contains(key)) {
      continue;
    }
    edge_example_[key] = "thread '" + thread + "' acquired '" +
                         fresh->name() + "' while holding '" + prior->name() +
                         "'";
    lock_graph_[prior].out.push_back(fresh);
    // A new edge prior -> fresh closes a cycle iff fresh already reaches
    // prior — check immediately so the cycle is reported on the schedule
    // that created it, deadlock or not.
    std::vector<const sim::Mutex*> path;
    std::set<const sim::Mutex*> seen;
    if (!lock_path(fresh, prior, path, seen)) {
      continue;
    }
    // Canonical key: the cycle's participants, order-independent.
    std::vector<std::string> names;
    names.reserve(path.size());
    for (const sim::Mutex* n : path) {
      names.emplace_back(n->name());
    }
    std::vector<std::string> sorted = names;
    std::sort(sorted.begin(), sorted.end());
    std::string cycle_key;
    for (const std::string& n : sorted) {
      cycle_key += n + "|";
    }
    if (!reported_cycles_.insert(cycle_key).second) {
      continue;
    }
    std::string cycle = "'" + std::string{prior->name()} + "'";
    for (const sim::Mutex* n : path) {
      cycle += " -> '" + std::string{n->name()} + "'";
    }
    // The edge that already ran in the opposite order: the path's last hop
    // into `prior`.
    const sim::Mutex* back_from = path.size() >= 2 ? path[path.size() - 2]
                                                   : fresh;
    std::string counterexample;
    const auto back = edge_example_.find(std::pair{back_from, prior});
    if (back != edge_example_.end()) {
      counterexample = back->second;
    }
    trace::RaceReport r;
    r.kind = trace::RaceKind::LockOrder;
    r.what = cycle;
    r.first = trace::RaceEndpoint{"", counterexample, "", false};
    r.second = trace::RaceEndpoint{thread, edge_example_[key], "", false};
    r.time = sched_->now();
    r.message = std::string{trace::to_string(trace::RaceKind::LockOrder)} +
                ": potential deadlock " + cycle + "; " + edge_example_[key] +
                (counterexample.empty() ? "" : "; " + counterexample);
    trace_.record(r);
    if (mode_ == Mode::Abort) {
      if (abort_handler_) {
        abort_handler_(trace_.records().back());
      } else {
        throw RaceError(r.message);
      }
    }
  }
}

std::unique_ptr<Detector> make_detector(apu::Machine& machine) {
  const apu::RaceCheckMode mode = machine.env().race_check;
  if (mode == apu::RaceCheckMode::Off) {
    return nullptr;
  }
  auto detector = std::make_unique<Detector>(
      mode == apu::RaceCheckMode::Abort ? Detector::Mode::Abort
                                        : Detector::Mode::Report,
      machine.page_bytes());
  detector->attach(machine.sched());
  return detector;
}

}  // namespace zc::race
