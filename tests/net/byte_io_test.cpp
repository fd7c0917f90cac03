// Tests for the bounds-checked byte readers/writers.
#include "net/byte_io.h"

#include <gtest/gtest.h>

namespace gso::net {
namespace {

TEST(ByteIo, RoundTripAllWidths) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0xBEEF);
  w.WriteU24(0x123456);
  w.WriteU32(0xDEADBEEF);
  w.WriteString4("GSOX");
  ByteReader r(w.data());
  EXPECT_EQ(r.ReadU8(), 0xAB);
  EXPECT_EQ(r.ReadU16(), 0xBEEF);
  EXPECT_EQ(r.ReadU24(), 0x123456u);
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadString4(), "GSOX");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIo, BigEndianLayout) {
  ByteWriter w;
  w.WriteU16(0x0102);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[1], 0x02);
}

TEST(ByteIo, OverrunSetsNotOkAndReturnsZero) {
  ByteWriter w;
  w.WriteU16(7);
  ByteReader r(w.data());
  EXPECT_EQ(r.ReadU32(), 0u);  // only 2 bytes available
  EXPECT_FALSE(r.ok());
  // Once broken, everything reads zero.
  EXPECT_EQ(r.ReadU8(), 0u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIo, SkipRespectsBounds) {
  ByteWriter w;
  w.WriteU32(1);
  ByteReader r(w.data());
  r.Skip(3);
  EXPECT_TRUE(r.ok());
  r.Skip(2);  // past the end
  EXPECT_FALSE(r.ok());
}

TEST(ByteIo, ReadBytesZeroFillsOnOverrun) {
  ByteWriter w;
  w.WriteU8(0xFF);
  ByteReader r(w.data());
  uint8_t out[4] = {1, 2, 3, 4};
  r.ReadBytes(out, 4);
  EXPECT_FALSE(r.ok());
  for (uint8_t b : out) EXPECT_EQ(b, 0);
}

TEST(ByteIo, TakeMovesBuffer) {
  ByteWriter w;
  w.WriteU32(42);
  const auto data = w.Take();
  EXPECT_EQ(data.size(), 4u);
  EXPECT_EQ(w.size(), 0u);
}

}  // namespace
}  // namespace gso::net
