// Differential test of the sparse mem::FrameImage against dense bytes: the
// image stores only its non-zero 8-byte words and hashes each frame in
// closed form, and every byte a PhysicalMemory reads through it, every
// copy-on-write copy and every digest term must equal what a dense byte
// copy of the same frames gives, hashed byte by byte as the simulator did
// before the image went sparse. Fixed-seed random images mix empty frames,
// scattered words (some with zero bytes inside), words at a frame's last
// slot and one fully dense frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "mem/phys_mem.h"
#include "stats/rng.h"

namespace whisper::mem {
namespace {

constexpr std::uint64_t kFrame = PhysicalMemory::kFrameSize;

// The byte-wise digest term: FNV-1a over all 4096 bytes, seeded with the
// frame number, then a splitmix64 avalanche.
std::uint64_t bytewise_term(std::uint64_t frame_no, const std::uint8_t* f) {
  std::uint64_t h = 1469598103934665603ull ^ frame_no;
  for (std::uint64_t i = 0; i < kFrame; ++i) {
    h ^= f[i];
    h *= 1099511628211ull;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

std::uint64_t bytewise_digest(std::uint64_t first_frame,
                              const std::vector<std::uint8_t>& bytes) {
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < bytes.size() / kFrame; ++i)
    acc += bytewise_term(first_frame + i, bytes.data() + i * kFrame);
  return acc;
}

/// A random image and the dense bytes it stands for.
struct Sample {
  std::uint64_t first_frame = 0;
  std::vector<std::uint8_t> bytes;
  std::shared_ptr<const FrameImage> image;

  [[nodiscard]] std::uint64_t base() const { return first_frame * kFrame; }
  [[nodiscard]] std::uint64_t end() const { return base() + bytes.size(); }
};

Sample random_sample(std::uint64_t seed) {
  stats::Xoshiro256 rng(seed);
  Sample s;
  s.first_frame = 64 + rng.next_below(1024);
  const std::uint64_t frames = 2 + rng.next_below(5);
  const std::uint64_t dense = rng.next_below(frames);
  s.bytes.assign(frames * kFrame, 0);
  std::vector<FrameImage::Word> words;
  for (std::uint64_t f = 0; f < frames; ++f) {
    // Per frame: dense, empty, or each word present with some probability.
    const std::uint64_t per_mille =
        f == dense ? 1000 : (rng.next_below(4) == 0 ? 0 : rng.next_below(60));
    for (std::uint64_t w = 0; w < kFrame / 8; ++w) {
      const bool last_slot = w == kFrame / 8 - 1 && rng.next_below(3) == 0;
      if (!last_slot && rng.next_below(1000) >= per_mille) continue;
      std::uint64_t value = rng.next();
      if (f != dense) {
        // Zero bytes inside words, and now and then a whole zero word,
        // which the image drops.
        for (int b = 0; b < 8; ++b)
          if (rng.next_below(3) == 0) value &= ~(std::uint64_t{0xff} << 8 * b);
      } else {
        value |= 0x0101010101010101ull;  // no zero byte anywhere
      }
      const std::uint64_t off = f * kFrame + 8 * w;
      words.push_back({off, value});
      for (int b = 0; b < 8; ++b)
        s.bytes[off + b] = static_cast<std::uint8_t>(value >> (8 * b));
    }
  }
  s.image = std::make_shared<const FrameImage>(s.first_frame, frames, words);
  return s;
}

void expect_reads_match(const PhysicalMemory& pm, const Sample& s,
                        const std::vector<std::uint8_t>& want_bytes,
                        stats::Xoshiro256& rng, std::uint64_t seed) {
  const auto want = [&](std::uint64_t pa) -> std::uint8_t {
    return pa >= s.base() && pa < s.end() ? want_bytes[pa - s.base()] : 0;
  };
  // Every byte of the image plus a frame on either side.
  for (std::uint64_t pa = s.base() - kFrame; pa < s.end() + kFrame; ++pa)
    ASSERT_EQ(pm.read8(pa), want(pa)) << "seed " << seed << " pa " << pa;
  const auto want64 = [&](std::uint64_t pa) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | want(pa + i);
    return v;
  };
  for (std::uint64_t pa = s.base() - 16; pa < s.end() + 16; pa += 8) {
    ASSERT_EQ(pm.read64(pa), want64(pa)) << "seed " << seed << " pa " << pa;
  }
  const std::uint64_t span = s.end() - s.base() + 2 * kFrame;
  for (int i = 0; i < 2000; ++i) {
    // Unaligned, frame-straddling near every frame edge, or anywhere.
    const std::uint64_t pa =
        i % 2 == 0 ? s.base() - kFrame + rng.next_below(span)
                   : s.base() + kFrame * rng.next_below(span / kFrame) -
                         rng.next_below(8);
    ASSERT_EQ(pm.read64(pa), want64(pa)) << "seed " << seed << " pa " << pa;
  }
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t pa = s.base() - kFrame + rng.next_below(span);
    const std::size_t len = 1 + rng.next_below(2 * kFrame + 16);
    const std::vector<std::uint8_t> got = pm.read_bytes(pa, len);
    for (std::size_t k = 0; k < len; ++k)
      ASSERT_EQ(got[k], want(pa + k))
          << "seed " << seed << " read_into at " << pa << " + " << k;
  }
}

TEST(FrameImageDifferential, RandomSparseImagesMatchDenseBytes) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Sample s = random_sample(seed);
    const FrameImage& image = *s.image;
    stats::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull);

    // Digest terms and the image's sum.
    for (std::uint64_t i = 0; i < image.frames(); ++i)
      ASSERT_EQ(image.term(s.first_frame + i),
                bytewise_term(s.first_frame + i, s.bytes.data() + i * kFrame))
          << "seed " << seed << " frame " << i;
    const std::uint64_t want_digest = bytewise_digest(s.first_frame, s.bytes);
    ASSERT_EQ(image.digest(), want_digest) << "seed " << seed;

    // Whole frames, then reads through a memory based on the image.
    std::vector<std::uint8_t> frame(kFrame);
    for (std::uint64_t i = 0; i < image.frames(); ++i) {
      image.copy_frame(s.first_frame + i, frame.data());
      ASSERT_TRUE(std::equal(frame.begin(), frame.end(),
                             s.bytes.begin() + i * kFrame))
          << "seed " << seed << " frame " << i;
    }
    PhysicalMemory pm;
    pm.set_base(s.image);
    EXPECT_EQ(pm.digest(), want_digest) << "seed " << seed;
    expect_reads_match(pm, s, s.bytes, rng, seed);
    EXPECT_EQ(pm.allocated_frames(), 0u);

    // The same bytes written into a memory with no image.
    PhysicalMemory plain;
    plain.write_bytes(s.base(), s.bytes.data(), s.bytes.size());
    EXPECT_EQ(plain.digest(), want_digest) << "seed " << seed;

    // Copy-on-write: a write keeps the rest of the image frame, and the
    // copied frame digests as its bytes do.
    std::vector<std::uint8_t> written = s.bytes;
    for (int w = 0; w < 3; ++w) {
      const std::uint64_t off = rng.next_below(s.bytes.size());
      const auto value = static_cast<std::uint8_t>(rng.next());
      pm.write8(s.base() + off, value);
      written[off] = value;
    }
    expect_reads_match(pm, s, written, rng, seed);
    EXPECT_EQ(pm.digest(), bytewise_digest(s.first_frame, written))
        << "seed " << seed;

    // The fault hook copies the image's first frame and flips its byte 0.
    PhysicalMemory hooked;
    hooked.set_base(s.image);
    hooked.corrupt_frame_for_test();
    std::vector<std::uint8_t> flipped = s.bytes;
    flipped[0] ^= 0xA5;
    EXPECT_EQ(hooked.allocated_frames(), 1u);
    expect_reads_match(hooked, s, flipped, rng, seed);
    EXPECT_EQ(hooked.digest(), bytewise_digest(s.first_frame, flipped))
        << "seed " << seed;

    // Neither memory wrote the shared image.
    for (std::uint64_t i = 0; i < image.frames(); ++i) {
      image.copy_frame(s.first_frame + i, frame.data());
      ASSERT_TRUE(std::equal(frame.begin(), frame.end(),
                             s.bytes.begin() + i * kFrame))
          << "seed " << seed << " frame " << i << " was written";
    }
  }
}

TEST(FrameImage, RefusesMisplacedWords) {
  const auto build = [](std::vector<FrameImage::Word> words) {
    return FrameImage(8, 2, words);
  };
  EXPECT_THROW(build({{4, 1}}), std::invalid_argument);           // unaligned
  EXPECT_THROW(build({{16, 1}, {8, 1}}), std::invalid_argument);  // unsorted
  EXPECT_THROW(build({{8, 1}, {8, 2}}), std::invalid_argument);   // repeated
  EXPECT_THROW(build({{2 * kFrame, 1}}), std::invalid_argument);  // past end
  EXPECT_THROW(FrameImage(8, 0, {}), std::invalid_argument);      // empty
  EXPECT_EQ(build({{8, 0}}).digest(), build({}).digest());  // zero dropped
}

}  // namespace
}  // namespace whisper::mem
