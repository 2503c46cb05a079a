#include "zc/fault/spec.hpp"

#include <charconv>
#include <cstdio>

namespace zc::fault {

namespace {

/// The kind whose spelling is `token`; the spellings are `to_string(Kind)`
/// for every injectable kind, listed in enum order when none matches.
Kind kind_of(const std::string& token, const std::string& clause) {
  std::string expected;
  for (auto k = static_cast<int>(Kind::Oom);
       k <= static_cast<int>(Kind::AdmissionFlap); ++k) {
    const Kind kind = static_cast<Kind>(k);
    if (token == to_string(kind)) {
      return kind;
    }
    if (!expected.empty()) {
      expected += '|';
    }
    expected += to_string(kind);
  }
  throw FaultSpecError("fault spec: unknown site '" + token + "' in clause '" +
                       clause + "' (expected " + expected + ")");
}

std::uint64_t parse_u64(std::string_view text, const std::string& clause) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw FaultSpecError("fault spec: bad integer '" + std::string{text} +
                         "' in clause '" + clause + "'");
  }
  return value;
}

double parse_double(std::string_view text, const std::string& clause) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw FaultSpecError("fault spec: bad number '" + std::string{text} +
                         "' in clause '" + clause + "'");
  }
  return value;
}

/// Parse "<N>us" (the unit suffix is optional) into a TimePoint.
sim::TimePoint parse_time(std::string_view text, const std::string& clause) {
  if (text.size() >= 2 && text.substr(text.size() - 2) == "us") {
    text.remove_suffix(2);
  }
  const double us = parse_double(text, clause);
  if (us < 0.0) {
    throw FaultSpecError("fault spec: negative time in clause '" + clause +
                         "'");
  }
  return sim::TimePoint::zero() + sim::Duration::from_us(us);
}

Trigger parse_trigger(std::string_view text, const std::string& clause) {
  Trigger t;
  if (text.rfind("call=", 0) == 0) {
    text.remove_prefix(5);
    t.mode = Trigger::Mode::CallRange;
    const std::size_t dots = text.find("..");
    if (dots == std::string_view::npos) {
      t.call_from = t.call_to = parse_u64(text, clause);
    } else {
      t.call_from = parse_u64(text.substr(0, dots), clause);
      t.call_to = parse_u64(text.substr(dots + 2), clause);
    }
    if (t.call_from == 0 || t.call_to < t.call_from) {
      throw FaultSpecError("fault spec: call window must be 1-based and "
                           "non-empty in clause '" + clause + "'");
    }
    return t;
  }
  if (text.rfind("t=", 0) == 0) {
    text.remove_prefix(2);
    t.mode = Trigger::Mode::TimeWindow;
    const std::size_t dots = text.find("..");
    if (dots == std::string_view::npos) {
      t.t_from = parse_time(text, clause);
      t.t_to = sim::TimePoint::max();
    } else {
      t.t_from = parse_time(text.substr(0, dots), clause);
      t.t_to = parse_time(text.substr(dots + 2), clause);
    }
    if (t.t_to < t.t_from) {
      throw FaultSpecError("fault spec: empty time window in clause '" +
                           clause + "'");
    }
    return t;
  }
  if (text.rfind("p=", 0) == 0) {
    text.remove_prefix(2);
    t.mode = Trigger::Mode::Probability;
    t.probability = parse_double(text, clause);
    if (t.probability < 0.0 || t.probability > 1.0) {
      throw FaultSpecError("fault spec: probability outside [0,1] in clause '" +
                           clause + "'");
    }
    return t;
  }
  throw FaultSpecError("fault spec: unknown trigger '" + std::string{text} +
                       "' in clause '" + clause +
                       "' (expected call=, t=, or p=)");
}

Clause parse_clause(const std::string& text) {
  const std::size_t at = text.find('@');
  if (at == std::string::npos) {
    throw FaultSpecError("fault spec: clause '" + text +
                         "' has no '@trigger' part");
  }
  Clause clause;
  clause.kind = kind_of(text.substr(0, at), text);
  clause.site = site_of(clause.kind);

  std::string_view rest{text};
  rest.remove_prefix(at + 1);
  std::size_t colon = rest.find(':');
  clause.trigger = parse_trigger(rest.substr(0, colon), text);
  while (colon != std::string_view::npos) {
    rest.remove_prefix(colon + 1);
    colon = rest.find(':');
    const std::string_view option = rest.substr(0, colon);
    if (option.size() >= 2 && option[0] == 'x') {
      clause.factor = parse_double(option.substr(1), text);
      if (clause.factor <= 0.0) {
        throw FaultSpecError("fault spec: non-positive latency factor in "
                             "clause '" + text + "'");
      }
    } else {
      throw FaultSpecError("fault spec: unknown option '" +
                           std::string{option} + "' in clause '" + text + "'");
    }
  }
  return clause;
}

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// True for the kinds whose clause carries a meaningful latency factor
/// (rendered back as ":xF" when it differs from the default).
bool has_factor(Kind k) {
  return k == Kind::ReplayStorm || k == Kind::EvictStorm ||
         k == Kind::MigrationStall || k == Kind::TenantBurst;
}

}  // namespace

Schedule parse_spec(const std::string& spec) {
  Schedule out;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    if (spec.empty()) {
      break;
    }
    const std::size_t end = spec.find(';', begin);
    const std::string clause =
        spec.substr(begin, end == std::string::npos ? end : end - begin);
    if (clause.empty()) {
      throw FaultSpecError("fault spec: empty clause in '" + spec + "'");
    }
    out.clauses.push_back(parse_clause(clause));
    if (end == std::string::npos) {
      break;
    }
    begin = end + 1;
  }
  return out;
}

std::string to_string(const Schedule& schedule) {
  std::string s;
  for (const Clause& c : schedule.clauses) {
    if (!s.empty()) {
      s += ';';
    }
    s += to_string(c.kind);
    s += '@';
    switch (c.trigger.mode) {
      case Trigger::Mode::CallRange:
        s += "call=" + std::to_string(c.trigger.call_from);
        if (c.trigger.call_to != c.trigger.call_from) {
          s += ".." + std::to_string(c.trigger.call_to);
        }
        break;
      case Trigger::Mode::TimeWindow:
        s += "t=" + format_double(c.trigger.t_from.since_start().us()) + "us";
        if (c.trigger.t_to != sim::TimePoint::max()) {
          s += ".." + format_double(c.trigger.t_to.since_start().us()) + "us";
        }
        break;
      case Trigger::Mode::Probability:
        s += "p=" + format_double(c.trigger.probability);
        break;
    }
    if (has_factor(c.kind) && c.factor != 8.0) {
      s += ":x" + format_double(c.factor);
    }
  }
  return s;
}

}  // namespace zc::fault
