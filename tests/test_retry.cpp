// systems/retry: backoff bounds, deadline semantics, seeded-jitter
// determinism, blind-redundancy mode, and the ReplayCache used for
// at-most-once server handlers.
#include "systems/retry.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/sim.hpp"

namespace dcpl::systems {
namespace {

TEST(Backoff, ExactDoublingWithoutJitter) {
  RetryPolicy p;
  p.initial_timeout_us = 50'000;
  p.max_timeout_us = 800'000;
  p.backoff = 2.0;
  p.jitter = 0.0;
  XoshiroRng rng(1);
  EXPECT_EQ(backoff_timeout(p, 0, rng), 50'000u);
  EXPECT_EQ(backoff_timeout(p, 1, rng), 100'000u);
  EXPECT_EQ(backoff_timeout(p, 2, rng), 200'000u);
  EXPECT_EQ(backoff_timeout(p, 3, rng), 400'000u);
  EXPECT_EQ(backoff_timeout(p, 4, rng), 800'000u);
  // Clamped at the cap from here on.
  EXPECT_EQ(backoff_timeout(p, 5, rng), 800'000u);
  EXPECT_EQ(backoff_timeout(p, 63, rng), 800'000u);
}

TEST(Backoff, MonotoneWithoutJitter) {
  RetryPolicy p;
  p.jitter = 0.0;
  XoshiroRng rng(1);
  net::Time prev = 0;
  for (unsigned a = 0; a < 20; ++a) {
    const net::Time t = backoff_timeout(p, a, rng);
    EXPECT_GE(t, prev) << "attempt " << a;
    prev = t;
  }
}

TEST(Backoff, JitterStaysWithinFraction) {
  RetryPolicy p;
  p.initial_timeout_us = 100'000;
  p.max_timeout_us = 100'000;  // pin the base so only jitter varies
  p.jitter = 0.2;
  XoshiroRng rng(7);
  for (int i = 0; i < 500; ++i) {
    const net::Time t = backoff_timeout(p, 0, rng);
    EXPECT_GE(t, 80'000u);
    EXPECT_LT(t, 120'000u);
  }
}

// Regression: the cap used to be applied before the jitter multiply, so a
// flow at max_timeout_us could wait up to (1 + jitter) x the configured
// maximum. The post-jitter value must respect the cap as a hard bound.
TEST(Backoff, JitterIsClampedAtTheCap) {
  RetryPolicy p;
  p.initial_timeout_us = 800'000;
  p.max_timeout_us = 800'000;  // base sits exactly at the cap
  p.jitter = 0.5;
  XoshiroRng rng(11);
  bool below_cap = false, at_cap = false;
  for (int i = 0; i < 500; ++i) {
    const net::Time t = backoff_timeout(p, 0, rng);
    EXPECT_LE(t, 800'000u) << "draw " << i;   // never above the cap
    EXPECT_GE(t, 400'000u) << "draw " << i;   // downward jitter still applies
    below_cap |= t < 800'000u;
    at_cap |= t == 800'000u;
  }
  // Upward draws clamp to exactly the cap; downward draws pass through.
  EXPECT_TRUE(below_cap);
  EXPECT_TRUE(at_cap);
}

TEST(Backoff, NeverBelowOneMicrosecond) {
  RetryPolicy p;
  p.initial_timeout_us = 0;
  p.jitter = 0.0;
  XoshiroRng rng(1);
  EXPECT_GE(backoff_timeout(p, 0, rng), 1u);
}

TEST(Backoff, SeededJitterIsDeterministic) {
  RetryPolicy p;  // default jitter 0.2
  XoshiroRng rng_a(42), rng_b(42);
  for (unsigned a = 0; a < 16; ++a) {
    EXPECT_EQ(backoff_timeout(p, a, rng_a), backoff_timeout(p, a, rng_b));
  }
  // A different seed diverges somewhere in the sequence.
  XoshiroRng rng_c(42), rng_d(43);
  bool diverged = false;
  for (unsigned a = 0; a < 16; ++a) {
    diverged |= backoff_timeout(p, a, rng_c) != backoff_timeout(p, a, rng_d);
  }
  EXPECT_TRUE(diverged);
}

TEST(RetryRun, FirstSendSucceedsWithoutResend) {
  net::Simulator sim;
  XoshiroRng rng(1);
  RetryPolicy policy;
  unsigned sends = 0;
  bool delivered = false;
  bool failed = false;
  retry_run(
      sim, policy, rng,
      [&](unsigned) {
        ++sends;
        delivered = true;
      },
      [&] { return delivered; },
      [&](const RetryError&) { failed = true; });
  sim.run();
  EXPECT_EQ(sends, 1u);
  EXPECT_FALSE(failed);
}

TEST(RetryRun, ResendsUntilDonePredicateFlips) {
  net::Simulator sim;
  XoshiroRng rng(1);
  RetryPolicy policy;
  policy.max_attempts = 5;
  unsigned sends = 0;
  bool failed = false;
  retry_run(
      sim, policy, rng, [&](unsigned) { ++sends; },
      [&] { return sends >= 3; },  // "response" arrives after the third send
      [&](const RetryError&) { failed = true; });
  sim.run();
  EXPECT_EQ(sends, 3u);
  EXPECT_FALSE(failed);
}

TEST(RetryRun, AttemptsExhaustedIsTyped) {
  net::Simulator sim;
  XoshiroRng rng(1);
  RetryPolicy policy;
  policy.max_attempts = 4;
  unsigned sends = 0;
  std::vector<RetryError> errors;
  retry_run(
      sim, policy, rng, [&](unsigned) { ++sends; }, [] { return false; },
      [&](const RetryError& e) { errors.push_back(e); });
  sim.run();
  EXPECT_EQ(sends, 4u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].kind, RetryErrorKind::kAttemptsExhausted);
  EXPECT_EQ(errors[0].attempts, 4u);
  EXPECT_NE(errors[0].message().find("attempts exhausted"),
            std::string::npos);
}

TEST(RetryRun, DeadlineExceededIsTyped) {
  net::Simulator sim;
  XoshiroRng rng(1);
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_timeout_us = 50'000;
  policy.jitter = 0.0;
  policy.deadline_us = 120'000;
  unsigned sends = 0;
  std::vector<RetryError> errors;
  retry_run(
      sim, policy, rng, [&](unsigned) { ++sends; }, [] { return false; },
      [&](const RetryError& e) { errors.push_back(e); });
  sim.run();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].kind, RetryErrorKind::kDeadlineExceeded);
  EXPECT_GE(errors[0].elapsed_us, policy.deadline_us);
  // Far fewer sends than max_attempts: the deadline cut the loop short.
  EXPECT_LT(sends, 10u);
  EXPECT_GE(sends, 1u);
}

TEST(RetryRun, FirstSendHappensEvenWithImmediateDeadline) {
  net::Simulator sim;
  XoshiroRng rng(1);
  RetryPolicy policy;
  policy.deadline_us = 1;  // expires before any resend is possible
  unsigned sends = 0;
  std::vector<RetryError> errors;
  retry_run(
      sim, policy, rng, [&](unsigned) { ++sends; }, [] { return false; },
      [&](const RetryError& e) { errors.push_back(e); });
  sim.run();
  EXPECT_EQ(sends, 1u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].kind, RetryErrorKind::kDeadlineExceeded);
}

TEST(RetryRun, ZeroMaxAttemptsFailsWithoutSending) {
  net::Simulator sim;
  XoshiroRng rng(1);
  RetryPolicy policy;
  policy.max_attempts = 0;
  unsigned sends = 0;
  std::vector<RetryError> errors;
  retry_run(
      sim, policy, rng, [&](unsigned) { ++sends; }, [] { return false; },
      [&](const RetryError& e) { errors.push_back(e); });
  sim.run();
  EXPECT_EQ(sends, 0u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].kind, RetryErrorKind::kAttemptsExhausted);
  EXPECT_EQ(errors[0].attempts, 0u);
}

TEST(RetryRun, BlindModeSendsEveryAttemptAndNeverFails) {
  net::Simulator sim;
  XoshiroRng rng(1);
  RetryPolicy policy;
  policy.max_attempts = 3;
  std::vector<unsigned> attempts_seen;
  bool failed = false;
  retry_run(
      sim, policy, rng,
      [&](unsigned attempt) { attempts_seen.push_back(attempt); },
      /*done=*/nullptr, [&](const RetryError&) { failed = true; });
  sim.run();
  EXPECT_EQ(attempts_seen, (std::vector<unsigned>{0, 1, 2}));
  EXPECT_FALSE(failed);
}

TEST(RetryRun, ResendSpacingFollowsBackoffSchedule) {
  net::Simulator sim;
  XoshiroRng rng(1);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_timeout_us = 50'000;
  policy.jitter = 0.0;
  std::vector<net::Time> send_times;
  retry_run(
      sim, policy, rng, [&](unsigned) { send_times.push_back(sim.now()); },
      nullptr, nullptr);
  sim.run();
  ASSERT_EQ(send_times.size(), 3u);
  EXPECT_EQ(send_times[0], 0u);
  EXPECT_EQ(send_times[1], 50'000u);   // after the first timeout
  EXPECT_EQ(send_times[2], 150'000u);  // + doubled second timeout
}

// Regression: the retry counters used to be bound once, statically, to
// whatever registry the first-ever retry_run saw — after a bench redirected
// its simulator via set_metrics, retry activity kept counting into the stale
// registry. They must follow the simulator's *current* registry.
TEST(RetryRun, CountersLandInActiveScopedRegistry) {
  obs::Registry reg_a, reg_b;
  net::Simulator sim;
  sim.set_metrics(reg_a);
  XoshiroRng rng(1);
  RetryPolicy policy;
  policy.max_attempts = 4;
  const std::uint64_t global_sends_before =
      obs::global_registry().scope("sim").scope("retry").counter("sends")
          .value();

  unsigned sends = 0;
  retry_run(
      sim, policy, rng, [&](unsigned) { ++sends; }, [&] { return sends >= 2; },
      nullptr);
  sim.run();
  EXPECT_EQ(reg_a.scope("retry").counter("sends").value(), 2u);
  EXPECT_EQ(reg_a.scope("retry").counter("resends").value(), 1u);
  EXPECT_EQ(reg_a.scope("retry").counter("successes").value(), 1u);

  // Swap the sink mid-session: the next flow's counters land in reg_b and
  // reg_a stays frozen.
  sim.set_metrics(reg_b);
  policy.max_attempts = 2;
  unsigned sends_b = 0;
  retry_run(
      sim, policy, rng, [&](unsigned) { ++sends_b; }, [] { return false; },
      nullptr);
  sim.run();
  EXPECT_EQ(reg_b.scope("retry").counter("sends").value(), 2u);
  EXPECT_EQ(reg_b.scope("retry").counter("failures").value(), 1u);
  EXPECT_EQ(reg_a.scope("retry").counter("sends").value(), 2u);
  EXPECT_EQ(reg_a.scope("retry").counter("failures").value(), 0u);

  // Swapping back resolves the original counters, values preserved.
  sim.set_metrics(reg_a);
  retry_run(
      sim, policy, rng, [](unsigned) {}, [] { return false; }, nullptr);
  sim.run();
  EXPECT_EQ(reg_a.scope("retry").counter("sends").value(), 4u);
  EXPECT_EQ(reg_a.scope("retry").counter("failures").value(), 1u);
  EXPECT_EQ(reg_b.scope("retry").counter("sends").value(), 2u);

  // Nothing leaked into the global default scope.
  EXPECT_EQ(obs::global_registry().scope("sim").scope("retry").counter("sends")
                .value(),
            global_sends_before);
}

// Regression: the retry counters were cached per registry *address*, so a
// registry freed and then reallocated at the same address (two stack
// registries in consecutive scopes) was handed a dangling counter: the new
// registry read zero while the increments went to freed memory.
TEST(RetryRun, CountersFollowARegistryReallocatedAtTheSameAddress) {
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    obs::Registry reg;
    net::Simulator sim;
    sim.set_metrics(reg);
    XoshiroRng rng(1);
    RetryPolicy policy;
    policy.max_attempts = 3;
    unsigned sends = 0;
    retry_run(
        sim, policy, rng, [&](unsigned) { ++sends; }, [] { return false; },
        nullptr);
    sim.run();
    EXPECT_EQ(sends, 3u);
    EXPECT_EQ(reg.scope("retry").counter("sends").value(), 3u);
    EXPECT_EQ(reg.scope("retry").counter("resends").value(), 2u);
    EXPECT_EQ(reg.scope("retry").counter("failures").value(), 1u);
  }
}

TEST(ReplayCache, StoresAndReplaysByContext) {
  ReplayCache cache;
  EXPECT_EQ(cache.find(7), nullptr);
  EXPECT_EQ(cache.size(), 0u);

  cache.store(7, to_bytes("response-a"));
  ASSERT_NE(cache.find(7), nullptr);
  EXPECT_EQ(to_string(*cache.find(7)), "response-a");
  EXPECT_EQ(cache.find(8), nullptr);
  EXPECT_EQ(cache.size(), 1u);

  // Re-storing the same context replaces (idempotent handlers re-store the
  // same bytes; this just pins the latest).
  cache.store(7, to_bytes("response-b"));
  EXPECT_EQ(to_string(*cache.find(7)), "response-b");
  EXPECT_EQ(cache.size(), 1u);

  // An empty stored response is distinguishable from "never seen".
  cache.store(9, {});
  ASSERT_NE(cache.find(9), nullptr);
  EXPECT_TRUE(cache.find(9)->empty());
}

}  // namespace
}  // namespace dcpl::systems
