// Tests for the conference-wide stream directory.
#include "conference/directory.h"

#include <gtest/gtest.h>

namespace gso::conference {
namespace {

StreamInfo Video(uint32_t ssrc, uint32_t owner, int layer, Resolution res,
                 core::SourceKind kind = core::SourceKind::kCamera) {
  StreamInfo info;
  info.ssrc = Ssrc(ssrc);
  info.owner = ClientId(owner);
  info.source = kind;
  info.layer_index = layer;
  info.resolution = res;
  return info;
}

TEST(Directory, RegisterLookupUnregister) {
  StreamDirectory directory;
  directory.Register(Video(100, 1, 0, kResolution720p));
  auto info = directory.Lookup(Ssrc(100));
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->owner, ClientId(1));
  EXPECT_EQ(info->resolution, kResolution720p);
  directory.Unregister(Ssrc(100));
  EXPECT_FALSE(directory.Lookup(Ssrc(100)).has_value());
}

TEST(Directory, LayersOfOrdersByIndex) {
  StreamDirectory directory;
  directory.Register(Video(102, 1, 2, kResolution180p));
  directory.Register(Video(100, 1, 0, kResolution720p));
  directory.Register(Video(101, 1, 1, kResolution360p));
  const auto layers =
      directory.LayersOf(ClientId(1), core::SourceKind::kCamera);
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(layers[0].ssrc, Ssrc(100));
  EXPECT_EQ(layers[1].ssrc, Ssrc(101));
  EXPECT_EQ(layers[2].ssrc, Ssrc(102));
}

TEST(Directory, LayersOfFiltersOwnerKindAndAudio) {
  StreamDirectory directory;
  directory.Register(Video(100, 1, 0, kResolution720p));
  directory.Register(Video(200, 2, 0, kResolution720p));
  directory.Register(
      Video(300, 1, 0, kResolution1080p, core::SourceKind::kScreen));
  StreamInfo audio;
  audio.ssrc = Ssrc(400);
  audio.owner = ClientId(1);
  audio.is_audio = true;
  directory.Register(audio);

  EXPECT_EQ(directory.LayersOf(ClientId(1), core::SourceKind::kCamera).size(),
            1u);
  EXPECT_EQ(directory.LayersOf(ClientId(1), core::SourceKind::kScreen).size(),
            1u);
  EXPECT_EQ(directory.LayersOf(ClientId(3), core::SourceKind::kCamera).size(),
            0u);
}

TEST(Directory, ReRegisterUpdatesInPlace) {
  StreamDirectory directory;
  directory.Register(Video(100, 1, 0, kResolution720p));
  directory.Register(Video(100, 1, 0, kResolution360p));  // update
  EXPECT_EQ(directory.Lookup(Ssrc(100))->resolution, kResolution360p);
}

// Readers that derive state from the directory (the accessing node's
// fallback candidates) resolve again whenever the generation moves.
TEST(Directory, EveryChangeBumpsTheGeneration) {
  StreamDirectory directory;
  const uint64_t start = directory.generation();
  directory.Register(Video(100, 1, 0, kResolution720p));
  EXPECT_EQ(directory.generation(), start + 1);
  directory.Register(Video(100, 1, 0, kResolution360p));
  EXPECT_EQ(directory.generation(), start + 2);
  directory.Unregister(Ssrc(100));
  EXPECT_EQ(directory.generation(), start + 3);
  int streams = 0;
  directory.ForEach([&streams](const StreamInfo&) { ++streams; });
  EXPECT_EQ(streams, 0);
}

}  // namespace
}  // namespace gso::conference
