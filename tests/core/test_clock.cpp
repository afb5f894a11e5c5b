// core::Clock and core::Reactor — the event-core's time source and the
// handler-driven loop the packet substrate runs on. Pins monotonicity and
// (time, FIFO) dispatch order.
#include "core/clock.hpp"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bwshare::core {
namespace {

TEST(Clock, AdvancesMonotonically) {
  Clock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.advance_to(2.5);
  EXPECT_DOUBLE_EQ(clock.now(), 2.5);
  clock.advance_to(2.5);  // standing still is allowed
  EXPECT_DOUBLE_EQ(clock.now(), 2.5);
  clock.advance_to(3.0);
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
}

TEST(Clock, RefusesToRunBackwards) {
  Clock clock;
  clock.advance_to(5.0);
  EXPECT_THROW(clock.advance_to(4.0), Error);
  EXPECT_THROW(clock.advance_to(-1.0), Error);
  EXPECT_DOUBLE_EQ(clock.now(), 5.0);
}

TEST(Clock, RefusesANaNTime) {
  // NaN compares false against everything, so it cannot pass for "not
  // backwards"; the clock keeps its position.
  Clock clock;
  clock.advance_to(1.0);
  EXPECT_THROW(clock.advance_to(std::numeric_limits<double>::quiet_NaN()),
               Error);
  EXPECT_DOUBLE_EQ(clock.now(), 1.0);
  Reactor reactor;
  EXPECT_THROW(
      reactor.schedule_at(std::numeric_limits<double>::quiet_NaN(), [] {}),
      Error);
  EXPECT_EQ(reactor.run(), 0u);
}

TEST(Reactor, DispatchesInTimeOrder) {
  Reactor reactor;
  std::vector<int> order;
  reactor.schedule_at(3.0, [&] { order.push_back(3); });
  reactor.schedule_at(1.0, [&] { order.push_back(1); });
  reactor.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(reactor.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(reactor.now(), 3.0);
}

TEST(Reactor, SimultaneousEventsAreFifo) {
  Reactor reactor;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    reactor.schedule_at(1.0, [&order, i] { order.push_back(i); });
  reactor.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Reactor, HandlersCanScheduleMoreEvents) {
  Reactor reactor;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) reactor.schedule_in(1.0, chain);
  };
  reactor.schedule_in(1.0, chain);
  reactor.run();
  EXPECT_EQ(fired, 10);
  EXPECT_DOUBLE_EQ(reactor.now(), 10.0);
}

TEST(Reactor, CannotScheduleInThePast) {
  Reactor reactor;
  reactor.schedule_at(5.0, [] {});
  reactor.run();
  EXPECT_THROW(reactor.schedule_at(1.0, [] {}), Error);
  EXPECT_THROW(reactor.schedule_in(-1.0, [] {}), Error);
}

}  // namespace
}  // namespace bwshare::core
