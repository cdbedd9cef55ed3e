#include "par/mailbox.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

namespace aedbmls::par {
namespace {

TEST(Mailbox, SendRecvSingleThread) {
  Mailbox<int> mailbox;
  EXPECT_TRUE(mailbox.send(7));
  const auto received = mailbox.recv();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, 7);
}

TEST(Mailbox, FifoOrder) {
  Mailbox<int> mailbox;
  for (int i = 0; i < 100; ++i) mailbox.send(i);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(*mailbox.recv(), i);
}

TEST(Mailbox, CloseRejectsNewSendsButDrains) {
  Mailbox<int> mailbox;
  mailbox.send(1);
  mailbox.send(2);
  mailbox.close();
  EXPECT_FALSE(mailbox.send(3));
  EXPECT_EQ(*mailbox.recv(), 1);
  EXPECT_EQ(*mailbox.recv(), 2);
  EXPECT_FALSE(mailbox.recv().has_value());  // drained + closed
}

TEST(Mailbox, RecvBlocksUntilSend) {
  Mailbox<int> mailbox;
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    const auto v = mailbox.recv();
    if (v && *v == 9) got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  mailbox.send(9);
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(Mailbox, CloseWakesBlockedReceiver) {
  Mailbox<int> mailbox;
  std::thread consumer([&] {
    EXPECT_FALSE(mailbox.recv().has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mailbox.close();
  consumer.join();
}

TEST(Mailbox, MultipleProducersSingleConsumer) {
  Mailbox<int> mailbox;
  constexpr int kProducers = 4;
  constexpr int kEach = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&mailbox] {
      for (int i = 0; i < kEach; ++i) mailbox.send(1);
    });
  }
  int total = 0;
  for (int i = 0; i < kProducers * kEach; ++i) {
    total += *mailbox.recv();
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(total, kProducers * kEach);
  mailbox.close();
  EXPECT_FALSE(mailbox.recv().has_value());  // nothing left over
}

TEST(Mailbox, MoveOnlyPayload) {
  Mailbox<std::unique_ptr<std::string>> mailbox;
  mailbox.send(std::make_unique<std::string>("payload"));
  const auto received = mailbox.recv();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(**received, "payload");
}

}  // namespace
}  // namespace aedbmls::par
