#include "zc/adapt/policy.hpp"

#include <algorithm>
#include <limits>

namespace zc::adapt {

PolicyEngine::PolicyEngine(const apu::CostParams& costs,
                           const apu::AdaptParams& params, int devices,
                           std::uint64_t page_bytes, bool xnack_enabled)
    : costs_{costs},
      params_{params},
      page_bytes_{page_bytes},
      xnack_enabled_{xnack_enabled},
      caches_(static_cast<std::size_t>(devices)) {}

PredictedCosts PolicyEngine::predict(const RegionFeatures& f) const {
  // Derived page populations. Pages the CPU never touched cannot be in the
  // GPU page table either (GPU demand faults materialize the CPU side too),
  // so non-CPU-resident pages are a subset of the GPU-absent ones.
  const std::uint64_t absent_nonres =
      f.pages - std::min(f.cpu_resident_pages, f.pages);
  const std::uint64_t absent_res =
      f.gpu_absent_pages > absent_nonres ? f.gpu_absent_pages - absent_nonres
                                         : 0;
  const std::uint64_t present = f.pages - std::min(f.gpu_absent_pages, f.pages);

  PredictedCosts out;

  // Zero-copy: every GPU-absent page demand-faults on first touch; pages
  // the CPU never created additionally pay one-at-a-time materialization.
  // Without XNACK the kernel would simply fault fatally — never choose it.
  if (xnack_enabled_) {
    out.zero_copy_us =
        static_cast<double>(absent_res) * costs_.xnack_fault_resident.us() +
        static_cast<double>(absent_nonres) *
            (costs_.xnack_fault_resident + costs_.page_materialize).us();
  } else {
    out.zero_copy_us = std::numeric_limits<double>::infinity();
  }

  // Eager prefault: one svm_attributes_set over the range, priced exactly
  // like the HSA layer prices it (insert / bulk-populate / verify).
  out.eager_us =
      costs_.prefault_syscall_base.us() +
      static_cast<double>(absent_res) * costs_.prefault_insert_per_page.us() +
      static_cast<double>(absent_nonres) *
          (costs_.prefault_insert_per_page + costs_.prefault_populate_per_page)
              .us() +
      static_cast<double>(present) * costs_.prefault_check_per_page.us();

  // Remote-homed pages keep their cost under any zero-copy handling: every
  // kernel streams them across the fabric at the wide-link bandwidth. A
  // DMA copy pays the link once (already in copy_us via the map transfers)
  // and then reads from local pool storage, so only the zero-copy-style
  // predictions carry the recurring surcharge.
  if (f.remote_pages > 0 && costs_.xgmi_wide_bandwidth_bytes_per_s > 0.0) {
    const double remote_us =
        static_cast<double>(f.remote_pages * page_bytes_) /
        costs_.xgmi_wide_bandwidth_bytes_per_s * 1e6;
    out.zero_copy_us += remote_us;
    out.eager_us += remote_us;
  }

  // DDR-spilled pages must promote back to HBM before the GPU can use them
  // at speed; both zero-copy handlings pay that per-page driver work on
  // first use (fault-in or prefault), while DmaCopy allocates fresh pool
  // storage and copies over the spill.
  if (f.ddr_pages > 0) {
    const double promote_us =
        static_cast<double>(f.ddr_pages) * costs_.promote_per_page.us();
    out.zero_copy_us += promote_us;
    out.eager_us += promote_us;
  }

  // DMA copy: a device pool allocation (bulk page population) plus the
  // transfers the map type implies.
  const double copy_us =
      costs_.copy_setup.us() + static_cast<double>(f.range.bytes) /
                                   costs_.copy_bandwidth_bytes_per_s * 1e6;
  out.copy_us = costs_.pool_alloc_base.us() +
                static_cast<double>(f.pages) * costs_.bulk_page_populate.us() +
                (f.copies_in ? copy_us : 0.0) + (f.copies_out ? copy_us : 0.0);
  // Tenant-aware pressure pricing: the fuller the service's admission
  // budget, the more a fresh pool allocation crowds co-resident tenants'
  // zero-copy pages, so DmaCopy pays a proportional surcharge. A soft
  // gradient, unlike the hard infinity overrides below.
  if (f.tenant_pressure > 0.0) {
    out.copy_us *=
        1.0 + params_.tenant_pressure_surcharge * f.tenant_pressure;
  }
  // Under memory pressure the pool allocation would likely fail and the
  // runtime would degrade to zero-copy anyway — after paying the failed
  // driver round trip. Price DmaCopy out entirely.
  if (f.memory_pressure) {
    out.copy_us = std::numeric_limits<double>::infinity();
  }
  // An open circuit breaker pins the device to its safest handling: no DMA
  // engines, no demand-fault storms — eager prefault only.
  if (f.breaker_open) {
    out.copy_us = std::numeric_limits<double>::infinity();
    out.zero_copy_us = std::numeric_limits<double>::infinity();
  }

  return out;
}

PolicyEngine::Cache::iterator PolicyEngine::find_containing(
    Cache& cache, mem::AddrRange range) {
  auto it = cache.upper_bound(range.base.value);
  if (it == cache.begin()) {
    return cache.end();
  }
  --it;
  const std::uint64_t entry_end = it->first + it->second.bytes;
  if (range.base.value >= it->first &&
      range.base.value + range.bytes <= entry_end) {
    return it;
  }
  return cache.end();
}

void PolicyEngine::evict_if_needed(Cache& cache) {
  if (cache.size() <= params_.max_cache_entries) {
    return;
  }
  // Deterministic eviction: the least recently used entry that is not
  // pinned by an active mapping.
  auto victim = cache.end();
  for (auto it = cache.begin(); it != cache.end(); ++it) {
    if (it->second.active_maps > 0) {
      continue;
    }
    if (victim == cache.end() ||
        it->second.last_used < victim->second.last_used) {
      victim = it;
    }
  }
  if (victim != cache.end()) {
    cache.erase(victim);
    ++evictions_;
  }
}

Outcome PolicyEngine::decide(int device, const RegionFeatures& features) {
  Cache& cache = caches_.at(static_cast<std::size_t>(device));
  ++seqno_;
  auto it = find_containing(cache, features.range);

  if (it != cache.end()) {
    CacheEntry& entry = it->second;
    entry.last_used = seqno_;
    ++entry.maps_since_eval;
    const bool pinned = entry.active_maps > 0;
    ++entry.active_maps;
    if (pinned || entry.maps_since_eval <= params_.hysteresis_maps) {
      return Outcome{.decision = entry.decision, .fresh = false};
    }
    // Hysteresis window elapsed and the range is quiescent: re-evaluate,
    // but switch only on a decisive margin.
    const PredictedCosts costs = predict(features);
    const Decision best = costs.best();
    Outcome out{.decision = entry.decision, .fresh = true, .costs = costs};
    if (best != entry.decision &&
        costs.cost_of(entry.decision) > costs.cost_of(best) * params_.switch_margin) {
      entry.decision = best;
      out.decision = best;
      out.revised = true;
    }
    entry.maps_since_eval = 0;
    return out;
  }

  // Cache miss: evaluate and remember.
  const PredictedCosts costs = predict(features);
  const Decision decision = costs.best();
  CacheEntry entry;
  entry.bytes = features.range.bytes;
  entry.decision = decision;
  entry.active_maps = 1;
  entry.last_used = seqno_;
  cache.insert_or_assign(features.range.base.value, entry);
  evict_if_needed(cache);
  return Outcome{.decision = decision, .fresh = true, .costs = costs};
}

void PolicyEngine::release(int device, mem::AddrRange range) {
  Cache& cache = caches_.at(static_cast<std::size_t>(device));
  auto it = find_containing(cache, range);
  if (it != cache.end() && it->second.active_maps > 0) {
    --it->second.active_maps;
  }
}

void PolicyEngine::forget(mem::AddrRange range) {
  for (Cache& cache : caches_) {
    auto it = cache.lower_bound(range.base.value);
    // Entries starting before the freed range can still overlap it.
    if (it != cache.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.bytes > range.base.value) {
        it = prev;
      }
    }
    while (it != cache.end() && it->first < range.base.value + range.bytes) {
      it = cache.erase(it);
    }
  }
}

}  // namespace zc::adapt
