#include "zc/apu/env.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <utility>

#include "zc/fault/spec.hpp"

namespace zc::apu {

namespace {

std::string lowered(std::string v) {
  std::transform(v.begin(), v.end(), v.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return v;
}

bool truthy(const std::string& key, const std::string& raw) {
  const std::string v = lowered(raw);
  if (v == "1" || v == "true" || v == "on" || v == "yes") {
    return true;
  }
  if (v == "0" || v == "false" || v == "off" || v == "no") {
    return false;
  }
  throw EnvError(key + "=" + raw + " is not a recognized boolean value");
}

ApuMapsMode apu_maps_mode(const std::string& key, const std::string& raw) {
  if (lowered(raw) == "adaptive") {
    return ApuMapsMode::Adaptive;
  }
  return truthy(key, raw) ? ApuMapsMode::On : ApuMapsMode::Off;
}

/// Mode plus the optional `:pruned` suffix of `OMPX_APU_RACE_CHECK`.
struct RaceCheckSetting {
  RaceCheckMode mode = RaceCheckMode::Off;
  bool pruned = false;
};

RaceCheckSetting race_check_mode(const std::string& key,
                                 const std::string& raw) {
  std::string v = lowered(raw);
  RaceCheckSetting out;
  if (const std::size_t colon = v.find(':'); colon != std::string::npos) {
    if (v.substr(colon + 1) != "pruned") {
      throw EnvError(key + "=" + raw +
                     " suffix must be ':pruned' (static proven-safe pruning)");
    }
    out.pruned = true;
    v = v.substr(0, colon);
  }
  if (v == "off") {
    if (out.pruned) {
      throw EnvError(key + "=" + raw + " cannot combine 'off' with ':pruned'");
    }
    out.mode = RaceCheckMode::Off;
  } else if (v == "report") {
    out.mode = RaceCheckMode::Report;
  } else if (v == "abort") {
    out.mode = RaceCheckMode::Abort;
  } else {
    throw EnvError(key + "=" + raw + " must be 'off', 'report', or 'abort'" +
                   " (optionally with a ':pruned' suffix)");
  }
  return out;
}

CheckMode check_mode(const std::string& key, const std::string& raw) {
  const std::string v = lowered(raw);
  if (v == "off") {
    return CheckMode::Off;
  }
  if (v == "report") {
    return CheckMode::Report;
  }
  if (v == "abort") {
    return CheckMode::Abort;
  }
  throw EnvError(key + "=" + raw + " must be 'off', 'report', or 'abort'");
}

fabric::FabricMode fabric_mode(const std::string& key, const std::string& raw) {
  const std::string v = lowered(raw);
  if (v == "off") {
    return fabric::FabricMode::Off;
  }
  if (v == "xgmi") {
    return fabric::FabricMode::Xgmi;
  }
  if (v == "uniform") {
    return fabric::FabricMode::Uniform;
  }
  throw EnvError(key + "=" + raw + " must be 'off', 'xgmi', or 'uniform'");
}

PressureMode pressure_mode(const std::string& key, const std::string& raw) {
  const std::string v = lowered(raw);
  if (v == "off") {
    return PressureMode::Off;
  }
  if (v == "watermarks") {
    return PressureMode::Watermarks;
  }
  throw EnvError(key + "=" + raw + " must be 'off' or 'watermarks'");
}

ThpMode thp_mode(const std::string& key, const std::string& raw) {
  if (lowered(raw) == "dynamic") {
    return ThpMode::Dynamic;
  }
  return truthy(key, raw) ? ThpMode::On : ThpMode::Off;
}

AutomigrateConfig automigrate_config(const std::string& key,
                                     const std::string& raw) {
  AutomigrateConfig out;
  // An integer >= 2 is a threshold; 0/1 fall through to the boolean forms
  // so "1" keeps its usual meaning of "on at the default threshold".
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(raw.data(), raw.data() + raw.size(), value);
  if (ec == std::errc{} && ptr == raw.data() + raw.size() && !raw.empty() &&
      value >= 2) {
    out.enabled = true;
    out.threshold = value;
    return out;
  }
  if (ec == std::errc{} && ptr == raw.data() + raw.size() && !raw.empty() &&
      value < 0) {
    throw EnvError(key + "=" + raw +
                   " must be a boolean or a threshold integer >= 2");
  }
  try {
    out.enabled = truthy(key, raw);
  } catch (const EnvError&) {
    throw EnvError(key + "=" + raw +
                   " must be a boolean or a threshold integer >= 2");
  }
  return out;
}

int socket_count(const std::string& key, const std::string& raw) {
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(raw.data(), raw.data() + raw.size(), value);
  if (ec != std::errc{} || ptr != raw.data() + raw.size() || raw.empty()) {
    throw EnvError(key + "=" + raw + " must be a positive integer");
  }
  if (value <= 0) {
    throw EnvError(key + "=" + raw + " must be a positive integer");
  }
  return value;
}

}  // namespace

WatchdogConfig parse_watchdog(const std::string& raw) {
  const std::string err_prefix = "OMPX_APU_WATCHDOG=" + raw + ": ";
  std::string_view text{raw};
  std::string_view budget = text;
  std::string_view mode;
  if (const std::size_t colon = text.find(':');
      colon != std::string_view::npos) {
    budget = text.substr(0, colon);
    mode = text.substr(colon + 1);
  }

  std::int64_t scale = 1;  // default unit: nanoseconds
  if (budget.size() >= 2) {
    const std::string_view suffix = budget.substr(budget.size() - 2);
    if (suffix == "ns") {
      budget.remove_suffix(2);
    } else if (suffix == "us") {
      scale = 1000;
      budget.remove_suffix(2);
    } else if (suffix == "ms") {
      scale = 1000 * 1000;
      budget.remove_suffix(2);
    }
  }
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(budget.data(), budget.data() + budget.size(), value);
  if (ec != std::errc{} || ptr != budget.data() + budget.size() ||
      budget.empty()) {
    throw EnvError(err_prefix + "budget must be an integer with an optional "
                                "ns/us/ms suffix");
  }
  if (value < 0) {
    throw EnvError(err_prefix + "budget must be non-negative");
  }

  WatchdogConfig out;
  out.budget = sim::Duration::nanoseconds(value * scale);
  if (!mode.empty()) {
    if (mode == "abort") {
      out.recover = false;
    } else if (mode == "recover") {
      out.recover = true;
    } else {
      throw EnvError(err_prefix + "mode must be 'abort' or 'recover'");
    }
  }
  return out;
}

ServiceConfig parse_service(const std::string& raw) {
  const std::string err_prefix = "OMPX_APU_SERVICE=" + raw + ": ";
  const std::size_t colon = raw.find(':');
  if (colon == std::string::npos) {
    throw EnvError(err_prefix +
                   "expected '<tenants>:<policy>' (the policy part is "
                   "mandatory: off, admit, fair, or full)");
  }
  const std::string tenants = raw.substr(0, colon);
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(tenants.data(), tenants.data() + tenants.size(), value);
  if (ec != std::errc{} || ptr != tenants.data() + tenants.size() ||
      tenants.empty() || value <= 0) {
    throw EnvError(err_prefix + "tenant count must be a positive integer");
  }

  ServiceConfig out;
  out.tenants = value;
  const std::string policy = lowered(raw.substr(colon + 1));
  if (policy == "off") {
    out.policy = ServicePolicy::Off;
  } else if (policy == "admit") {
    out.policy = ServicePolicy::Admit;
  } else if (policy == "fair") {
    out.policy = ServicePolicy::Fair;
  } else if (policy == "full") {
    out.policy = ServicePolicy::Full;
  } else {
    throw EnvError(err_prefix +
                   "policy must be 'off', 'admit', 'fair', or 'full'");
  }
  return out;
}

RunEnvironment RunEnvironment::from_env(
    const std::map<std::string, std::string>& env) {
  return from_env(env, RunEnvironment{});
}

RunEnvironment RunEnvironment::from_env(
    const std::map<std::string, std::string>& env, RunEnvironment base) {
  RunEnvironment out = std::move(base);
  if (auto it = env.find("HSA_XNACK"); it != env.end()) {
    out.hsa_xnack = truthy(it->first, it->second);
  }
  if (auto it = env.find("OMPX_APU_MAPS"); it != env.end()) {
    out.ompx_apu_maps = apu_maps_mode(it->first, it->second);
  }
  if (auto it = env.find("OMPX_EAGER_ZERO_COPY_MAPS"); it != env.end()) {
    out.ompx_eager_maps = truthy(it->first, it->second);
  }
  if (auto it = env.find("THP"); it != env.end()) {
    out.thp = thp_mode(it->first, it->second);
  }
  if (auto it = env.find("OMPX_APU_FAULTS"); it != env.end()) {
    try {
      (void)fault::parse_spec(it->second);
    } catch (const fault::FaultSpecError& e) {
      throw EnvError(std::string{"OMPX_APU_FAULTS: "} + e.what());
    }
    out.ompx_apu_faults = it->second;
  }
  if (auto it = env.find("OMPX_APU_WATCHDOG"); it != env.end()) {
    out.watchdog = parse_watchdog(it->second);
  }
  if (auto it = env.find("OMPX_APU_RACE_CHECK"); it != env.end()) {
    const RaceCheckSetting rc = race_check_mode(it->first, it->second);
    out.race_check = rc.mode;
    out.race_check_pruned = rc.pruned;
  }
  if (auto it = env.find("OMPX_APU_CHECK"); it != env.end()) {
    out.ompx_apu_check = check_mode(it->first, it->second);
  }
  if (auto it = env.find("OMPX_APU_SOCKETS"); it != env.end()) {
    out.ompx_apu_sockets = socket_count(it->first, it->second);
  }
  if (auto it = env.find("OMPX_APU_FABRIC"); it != env.end()) {
    out.ompx_apu_fabric = fabric_mode(it->first, it->second);
  }
  if (auto it = env.find("OMPX_APU_PRESSURE"); it != env.end()) {
    out.ompx_apu_pressure = pressure_mode(it->first, it->second);
  }
  if (auto it = env.find("OMPX_APU_AUTOMIGRATE"); it != env.end()) {
    out.ompx_apu_automigrate = automigrate_config(it->first, it->second);
  }
  if (auto it = env.find("OMPX_APU_SERVICE"); it != env.end()) {
    out.ompx_apu_service = parse_service(it->second);
  }
  return out;
}

std::string RunEnvironment::to_string() const {
  auto flag = [](bool b) { return b ? "1" : "0"; };
  std::string s;
  s += "HSA_XNACK=";
  s += flag(hsa_xnack);
  s += " OMPX_APU_MAPS=";
  s += apu::to_string(ompx_apu_maps);
  s += " OMPX_EAGER_ZERO_COPY_MAPS=";
  s += flag(ompx_eager_maps);
  s += " THP=";
  s += apu::to_string(thp);
  if (!ompx_apu_faults.empty()) {
    s += " OMPX_APU_FAULTS=";
    s += ompx_apu_faults;
  }
  if (watchdog.enabled()) {
    s += " OMPX_APU_WATCHDOG=";
    s += std::to_string(watchdog.budget.ns());
    s += watchdog.recover ? ":recover" : ":abort";
  }
  if (race_check != RaceCheckMode::Off) {
    s += " OMPX_APU_RACE_CHECK=";
    s += apu::to_string(race_check);
    if (race_check_pruned) {
      s += ":pruned";
    }
  }
  if (ompx_apu_check != CheckMode::Off) {
    s += " OMPX_APU_CHECK=";
    s += apu::to_string(ompx_apu_check);
  }
  if (ompx_apu_sockets > 0) {
    s += " OMPX_APU_SOCKETS=";
    s += std::to_string(ompx_apu_sockets);
  }
  if (ompx_apu_fabric != fabric::FabricMode::Off) {
    s += " OMPX_APU_FABRIC=";
    s += fabric::to_string(ompx_apu_fabric);
  }
  if (ompx_apu_pressure != PressureMode::Off) {
    s += " OMPX_APU_PRESSURE=";
    s += apu::to_string(ompx_apu_pressure);
  }
  if (ompx_apu_automigrate.enabled) {
    s += " OMPX_APU_AUTOMIGRATE=";
    s += std::to_string(ompx_apu_automigrate.threshold);
  }
  if (ompx_apu_service.enabled()) {
    s += " OMPX_APU_SERVICE=";
    s += std::to_string(ompx_apu_service.tenants);
    s += ':';
    s += apu::to_string(ompx_apu_service.policy);
  }
  return s;
}

}  // namespace zc::apu
