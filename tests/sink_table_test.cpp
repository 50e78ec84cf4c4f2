// SinkTable + Host default-agent tests (cc/sink_table.h): the receiver-side
// memory diet for population-scale drivers.
#include <gtest/gtest.h>

#include "cc/sink_table.h"
#include "net/host.h"

namespace pels {
namespace {

Packet make_packet(FlowId flow, std::int32_t bytes) {
  Packet pkt;
  pkt.flow = flow;
  pkt.size_bytes = bytes;
  return pkt;
}

TEST(SinkTableTest, RecordsPerFlowPacketsAndBytes) {
  SinkTable table;
  table.resize(4);
  table.record(1, 100);
  table.record(1, 250);
  table.record(3, 40);
  EXPECT_EQ(table.packets(0), 0u);
  EXPECT_EQ(table.packets(1), 2u);
  EXPECT_EQ(table.bytes(1), 350u);
  EXPECT_EQ(table.packets(3), 1u);
  EXPECT_EQ(table.bytes(3), 40u);
  const SinkTable::Totals t = table.totals();
  EXPECT_EQ(t.packets, 3u);
  EXPECT_EQ(t.bytes, 390u);
}

TEST(SinkTableTest, ResizePreservesCountersAndReportsFootprint) {
  SinkTable table;
  table.resize(2);
  table.record(0, 10);
  table.resize(8);
  EXPECT_EQ(table.size(), 8u);
  EXPECT_EQ(table.packets(0), 1u);
  EXPECT_EQ(table.packets(7), 0u);
  // One {packets, bytes} cell: 16 bytes per flow of committed capacity, minimum.
  EXPECT_GE(table.memory_bytes(), 8u * 16u);
}

TEST(SinkTableTest, AgentRoutesDeliveriesIntoFlowCells) {
  SinkTable table;
  table.resize(3);
  SinkTableAgent agent(table);
  agent.on_packet(make_packet(2, 500));
  agent.on_packet(make_packet(0, 125));
  agent.on_packet(make_packet(2, 500));
  EXPECT_EQ(table.packets(2), 2u);
  EXPECT_EQ(table.bytes(2), 1000u);
  EXPECT_EQ(table.packets(0), 1u);
  EXPECT_EQ(table.bytes(0), 125u);
}

TEST(HostDefaultAgentTest, FallsBackWhenNoPerFlowRegistration) {
  Host host(0, "h");
  SinkTable table;
  table.resize(2);
  SinkTableAgent agent(table);

  // No agent at all: the packet is undeliverable.
  host.receive(make_packet(0, 100));
  EXPECT_EQ(host.packets_undeliverable(), 1u);

  host.set_default_agent(&agent);
  host.receive(make_packet(0, 100));
  host.receive(make_packet(1, 200));
  EXPECT_EQ(host.packets_undeliverable(), 1u);
  EXPECT_EQ(table.packets(0), 1u);
  EXPECT_EQ(table.bytes(1), 200u);
  EXPECT_EQ(host.packets_received(), 3u);

  host.set_default_agent(nullptr);
  host.receive(make_packet(0, 100));
  EXPECT_EQ(host.packets_undeliverable(), 2u);
}

TEST(HostDefaultAgentTest, PerFlowRegistrationWinsOverDefault) {
  class Counter : public Agent {
   public:
    void on_packet(const Packet&) override { ++count; }
    int count = 0;
  };
  Host host(0, "h");
  SinkTable table;
  table.resize(2);
  SinkTableAgent fallback(table);
  Counter dedicated;
  host.set_default_agent(&fallback);
  host.register_agent(0, &dedicated);

  host.receive(make_packet(0, 100));  // flow 0 -> dedicated agent
  host.receive(make_packet(1, 100));  // flow 1 -> default agent
  EXPECT_EQ(dedicated.count, 1);
  EXPECT_EQ(table.packets(0), 0u);
  EXPECT_EQ(table.packets(1), 1u);

  host.unregister_agent(0);
  host.receive(make_packet(0, 100));  // now falls through to the default
  EXPECT_EQ(table.packets(0), 1u);
}

}  // namespace
}  // namespace pels
