// Differential equivalence harness for the scheduler ready-structure
// refactor (DESIGN.md §12).
//
// Two layers of defense:
//
//  1. Golden schedules: the traces below were recorded from the original
//     O(n)-scan scheduler (linear pick_next / fire_due_timers, after the
//     reschedule-rotation fix) and must be reproduced bit-for-bit by the
//     indexed ready-heap — in deterministic mode and under stress seeds
//     1/7/42. Any tie-break or timer-ordering drift fails loudly here.
//
//  2. Online policy cross-check: `Scheduler::enable_policy_check()` makes
//     every scheduling decision re-derive the winner with the reference
//     O(n) scan over all threads and throw on disagreement with the heap.
//     This validates the structure on *live* state — including scenarios
//     (contended mutexes with wake-one handoff) whose wakeup order
//     legitimately differs from the pre-refactor scheduler and therefore
//     cannot be covered by recorded goldens.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "equiv_scenarios.hpp"
#include "zc/sim/scheduler.hpp"

namespace zc::sim {
namespace {

struct Golden {
  const char* scenario;
  std::uint64_t seed;  // 0 = deterministic (stress off)
  const char* trace;
};

// Captured from the pre-refactor linear-scan scheduler. Do not regenerate
// from the heap scheduler: that would turn the differential test into a
// self-comparison.
const Golden kGoldens[] = {
    {"ties_rotation", 0,
     "a@0;b@0;c@0;a@0;b@0;c@0;a@0;b@0;c@0;a@0;b@0;c@0;a@0;b@0;c@0;a@0;b@0;"
     "c@0"},
    {"ties_rotation", 1,
     "c@0;b@0;b@0;b@0;c@0;a@0;a@0;b@0;c@0;b@0;c@0;c@0;c@0;b@0;a@0;a@0;a@0;"
     "a@0"},
    {"ties_rotation", 7,
     "c@0;a@0;c@0;c@0;c@0;c@0;a@0;a@0;b@0;a@0;b@0;c@0;b@0;a@0;b@0;a@0;b@0;"
     "b@0"},
    {"ties_rotation", 42,
     "a@0;b@0;c@0;c@0;c@0;c@0;c@0;c@0;b@0;b@0;a@0;b@0;a@0;b@0;b@0;a@0;a@0;"
     "a@0"},
    {"mixed_advance_sleep", 0,
     "t0@50;t4@62;t1@63;t5@75;t2@76;t3@89;t0@107;t4@131;t1@133;t3@145;t5@157;"
     "t2@159;t0@171;t0@201;t4@207;t3@208;t2@209;t1@210;t3@246;t5@246;t1@251;"
     "t4@256;t2@261;t0@272;t5@281;t3@316;t2@318;t1@335;t5@337;t4@339;t0@350;"
     "t2@382;t1@386;t4@389;t3@393;t5@400;t0@435;t1@444;t4@446;t2@453;t0@465;"
     "t5@470;t3@477;t1@485;t4@495;t2@505;t5@505;t3@515;t0@517;t1@550;t4@559;"
     "t3@566;t0@576;t5@582;t2@583;t1@622;t3@624;t4@630;t0@642;t5@666;t2@668;"
     "t0@672;t3@689;t1@701;t4@708;t5@717;t2@720;t3@727;t1@742;t0@745;t5@752;"
     "t4@757;t2@772;t3@799;t5@810;t0@825;t1@828;t2@831;t4@842;t5@875;t3@878;"
     "t1@881;t4@894;t2@897;t0@912;t1@941;t0@942;t5@947;t4@953;t3@964;t2@970;"
     "t1@982;t5@982;t3@1002;t4@1002;t2@1022"},
    {"mixed_advance_sleep", 1,
     "t0@50;t4@62;t1@63;t5@75;t2@76;t3@89;t0@107;t4@131;t1@133;t3@145;t5@157;"
     "t2@159;t0@171;t0@201;t4@207;t3@208;t2@209;t1@210;t3@246;t5@246;t1@251;"
     "t4@256;t2@261;t0@272;t5@281;t3@316;t2@318;t1@335;t5@337;t4@339;t0@350;"
     "t2@382;t1@386;t4@389;t3@393;t5@400;t0@435;t1@444;t4@446;t2@453;t0@465;"
     "t5@470;t3@477;t1@485;t4@495;t5@505;t2@505;t3@515;t0@517;t1@550;t4@559;"
     "t3@566;t0@576;t5@582;t2@583;t1@622;t3@624;t4@630;t0@642;t5@666;t2@668;"
     "t0@672;t3@689;t1@701;t4@708;t5@717;t2@720;t3@727;t1@742;t0@745;t5@752;"
     "t4@757;t2@772;t3@799;t5@810;t0@825;t1@828;t2@831;t4@842;t5@875;t3@878;"
     "t1@881;t4@894;t2@897;t0@912;t1@941;t0@942;t5@947;t4@953;t3@964;t2@970;"
     "t1@982;t5@982;t3@1002;t4@1002;t2@1022"},
    {"mixed_advance_sleep", 7,
     "t0@50;t4@62;t1@63;t5@75;t2@76;t3@89;t0@107;t4@131;t1@133;t3@145;t5@157;"
     "t2@159;t0@171;t0@201;t4@207;t3@208;t2@209;t1@210;t3@246;t5@246;t1@251;"
     "t4@256;t2@261;t0@272;t5@281;t3@316;t2@318;t1@335;t5@337;t4@339;t0@350;"
     "t2@382;t1@386;t4@389;t3@393;t5@400;t0@435;t1@444;t4@446;t2@453;t0@465;"
     "t5@470;t3@477;t1@485;t4@495;t2@505;t5@505;t3@515;t0@517;t1@550;t4@559;"
     "t3@566;t0@576;t5@582;t2@583;t1@622;t3@624;t4@630;t0@642;t5@666;t2@668;"
     "t0@672;t3@689;t1@701;t4@708;t5@717;t2@720;t3@727;t1@742;t0@745;t5@752;"
     "t4@757;t2@772;t3@799;t5@810;t0@825;t1@828;t2@831;t4@842;t5@875;t3@878;"
     "t1@881;t4@894;t2@897;t0@912;t1@941;t0@942;t5@947;t4@953;t3@964;t2@970;"
     "t1@982;t5@982;t3@1002;t4@1002;t2@1022"},
    {"mixed_advance_sleep", 42,
     "t0@50;t4@62;t1@63;t5@75;t2@76;t3@89;t0@107;t4@131;t1@133;t3@145;t5@157;"
     "t2@159;t0@171;t0@201;t4@207;t3@208;t2@209;t1@210;t3@246;t5@246;t1@251;"
     "t4@256;t2@261;t0@272;t5@281;t3@316;t2@318;t1@335;t5@337;t4@339;t0@350;"
     "t2@382;t1@386;t4@389;t3@393;t5@400;t0@435;t1@444;t4@446;t2@453;t0@465;"
     "t5@470;t3@477;t1@485;t4@495;t5@505;t2@505;t3@515;t0@517;t1@550;t4@559;"
     "t3@566;t0@576;t5@582;t2@583;t1@622;t3@624;t4@630;t0@642;t5@666;t2@668;"
     "t0@672;t3@689;t1@701;t4@708;t5@717;t2@720;t3@727;t1@742;t0@745;t5@752;"
     "t4@757;t2@772;t3@799;t5@810;t0@825;t1@828;t2@831;t4@842;t5@875;t3@878;"
     "t1@881;t4@894;t2@897;t0@912;t1@941;t0@942;t5@947;t4@953;t3@964;t2@970;"
     "t1@982;t5@982;t4@1002;t3@1002;t2@1022"},
    {"timer_at_min_clock", 0,
     "sleeper@0;sleeper@100;runner@100;sleeper@110;late@150;runner@200"},
    {"timer_at_min_clock", 1,
     "sleeper@0;sleeper@100;runner@100;sleeper@110;late@150;runner@200"},
    {"timer_at_min_clock", 7,
     "sleeper@0;runner@100;sleeper@100;sleeper@110;late@150;runner@200"},
    {"timer_at_min_clock", 42,
     "sleeper@0;runner@100;sleeper@100;sleeper@110;late@150;runner@200"},
    {"latch_barrier_fan", 0,
     "producer@75;w0@75;w1@75;w2@75;w3@75;producer@75;w0@95;w2@99;w1@112;"
     "w3@116;w0@116;w1@116;w2@116;w3@116;w0@141;w2@145;w1@158;w3@162;w0@162;"
     "w1@162;w2@162;w3@162;w3@183;w0@192;w2@196;w1@209;w0@209;w1@209;w2@209;"
     "w3@209"},
    {"latch_barrier_fan", 1,
     "producer@75;w2@75;w1@75;producer@75;w3@75;w0@75;w0@95;w2@99;w1@112;"
     "w3@116;w3@116;w2@116;w0@116;w1@116;w0@141;w2@145;w1@158;w3@162;w3@162;"
     "w1@162;w2@162;w0@162;w3@183;w0@192;w2@196;w1@209;w3@209;w0@209;w1@209;"
     "w2@209"},
    {"latch_barrier_fan", 7,
     "producer@75;w0@75;w3@75;w2@75;w1@75;producer@75;w0@95;w2@99;w1@112;"
     "w3@116;w2@116;w3@116;w1@116;w0@116;w0@141;w2@145;w1@158;w3@162;w3@162;"
     "w0@162;w1@162;w2@162;w3@183;w0@192;w2@196;w1@209;w2@209;w0@209;w1@209;"
     "w3@209"},
    {"latch_barrier_fan", 42,
     "producer@75;producer@75;w3@75;w1@75;w0@75;w2@75;w0@95;w2@99;w1@112;"
     "w3@116;w3@116;w2@116;w1@116;w0@116;w0@141;w2@145;w1@158;w3@162;w3@162;"
     "w2@162;w1@162;w0@162;w3@183;w0@192;w2@196;w1@209;w1@209;w2@209;w0@209;"
     "w3@209"},
    {"timeout_vs_notify", 0,
     "w0@60;w0@69;w1@100;producer@100;w2@100;producer@100;w2@105;w1@109"},
    {"timeout_vs_notify", 1,
     "w0@60;w0@69;producer@100;producer@100;w1@100;w2@100;w2@105;w1@109"},
    {"timeout_vs_notify", 7,
     "w0@60;w0@69;w1@100;producer@100;w2@100;producer@100;w2@105;w1@109"},
    {"timeout_vs_notify", 42,
     "w0@60;w0@69;producer@100;producer@100;w2@100;w1@100;w2@105;w1@109"},
};

const equiv::Scenario& find_scenario(const std::string& name) {
  for (const auto& sc : equiv::scenarios()) {
    if (name == sc.name) {
      return sc;
    }
  }
  throw std::logic_error("unknown scenario " + name);
}

class GoldenSchedule : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenSchedule, HeapSchedulerReproducesLinearScanTrace) {
  const Golden& g = GetParam();
  Scheduler s;
  if (g.seed != 0) {
    s.enable_stress(g.seed);
  }
  const std::string trace = find_scenario(g.scenario).run(s);
  EXPECT_EQ(trace, g.trace) << g.scenario << " seed=" << g.seed;
}

TEST_P(GoldenSchedule, PolicyCheckedRunMatchesGoldenToo) {
  // Same run with the online O(n) reference cross-check enabled: the heap
  // must not merely produce the right trace, every individual pick must
  // agree with the reference policy.
  const Golden& g = GetParam();
  Scheduler s;
  if (g.seed != 0) {
    s.enable_stress(g.seed);
  }
  s.enable_policy_check();
  const std::string trace = find_scenario(g.scenario).run(s);
  EXPECT_EQ(trace, g.trace) << g.scenario << " seed=" << g.seed;
}

std::string param_name(const ::testing::TestParamInfo<Golden>& info) {
  return std::string{info.param.scenario} + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds147And42, GoldenSchedule,
                         ::testing::ValuesIn(kGoldens), param_name);

// Contended-mutex traffic cannot be golden-checked against the pre-refactor
// scheduler (wake-one handoff intentionally changed wakeup order), so it is
// covered by the online cross-check instead: every pick during a heavily
// contended run must match the reference scan, under the deterministic
// policy and all three stress seeds.
TEST(SchedulerPolicyCheck, ContendedMutexRunSatisfiesReferencePolicy) {
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1},
                                   std::uint64_t{7}, std::uint64_t{42}}) {
    Scheduler s;
    if (seed != 0) {
      s.enable_stress(seed);
    }
    s.enable_policy_check();
    Mutex mutexes[3] = {Mutex{"m0"}, Mutex{"m1"}, Mutex{"m2"}};
    int done = 0;
    for (int t = 0; t < 8; ++t) {
      // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
      // with a false-positive -Wrestrict.
      std::string name = "t";
      name += std::to_string(t);
      s.spawn(std::move(name), [&s, &mutexes, &done, t] {
        for (int i = 0; i < 50; ++i) {
          s.advance(Duration::nanoseconds(10 + (t * 5 + i) % 9));
          LockGuard lock{mutexes[(t + i) % 3], s};
          s.advance(Duration::nanoseconds(7));
          if (i % 8 == 3) {
            s.reschedule();
          }
        }
        ++done;
      });
    }
    s.run();  // throws SimError on any heap-vs-reference divergence
    EXPECT_EQ(done, 8) << "seed=" << seed;
  }
}

TEST(SchedulerPolicyCheck, TimedWaitsSatisfyReferencePolicy) {
  // try_lock_for timeouts racing handoffs, checked against the reference
  // policy at every decision.
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{7}}) {
    Scheduler s;
    if (seed != 0) {
      s.enable_stress(seed);
    }
    s.enable_policy_check();
    Mutex m{"contended"};
    int acquired = 0;
    int timed_out = 0;
    for (int t = 0; t < 6; ++t) {
      // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
      // with a false-positive -Wrestrict.
      std::string name = "t";
      name += std::to_string(t);
      s.spawn(std::move(name), [&s, &m, &acquired, &timed_out, t] {
        for (int i = 0; i < 12; ++i) {
          s.advance(Duration::nanoseconds(5 + t));
          if (m.try_lock_for(s, Duration::nanoseconds(40 + 10 * (t % 3)))) {
            s.advance(Duration::nanoseconds(25));
            m.unlock(s);
            ++acquired;
          } else {
            ++timed_out;
          }
        }
      });
    }
    s.run();
    EXPECT_EQ(acquired + timed_out, 72) << "seed=" << seed;
    EXPECT_GT(acquired, 0) << "seed=" << seed;
  }
}

// Regression for the deprioritized-flag lifecycle (ISSUE 6 satellite):
// three equal-clock threads calling reschedule() in rotation must hand the
// CPU around fairly — A,B,C,A,B,C — not let spawn order re-pick A forever
// once every thread carries the flag.
TEST(SchedulerReschedule, EqualClockRotationIsFair) {
  Scheduler s;
  std::string order;
  for (int t = 0; t < 3; ++t) {
    s.spawn(std::string(1, static_cast<char>('A' + t)), [&s, &order] {
      for (int i = 0; i < 4; ++i) {
        order += s.current().name();
        s.reschedule();
      }
    });
  }
  s.run();
  EXPECT_EQ(order, "ABCABCABCABC");
}

TEST(SchedulerReschedule, FlagClearsOnlyWhenScheduled) {
  // B reschedules once while C (spawned later) is a clean tie: C must pass
  // B exactly once, after which B is back to spawn-order priority.
  Scheduler s;
  std::string order;
  s.spawn("A", [&s, &order] {
    order += 'A';
    s.reschedule();  // demote A: B and C get the CPU first
    order += 'A';
  });
  s.spawn("B", [&s, &order] {
    order += 'B';
    s.reschedule();  // demote B behind C, but older demotion beats A's
    order += 'B';
  });
  s.spawn("C", [&s, &order] {
    order += 'C';
    order += 'C';
  });
  s.run();
  EXPECT_EQ(order, "ABCCAB");
}

}  // namespace
}  // namespace zc::sim
