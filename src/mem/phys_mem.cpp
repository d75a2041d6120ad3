#include "mem/phys_mem.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>

namespace whisper::mem {

namespace {

constexpr std::uint64_t kFrameSize = PhysicalMemory::kFrameSize;

// digest()'s per-frame term: FNV-1a over the bytes, seeded with the frame
// number, then a splitmix64 avalanche so the terms sum without the
// low-entropy tails cancelling.
std::uint64_t frame_term(std::uint64_t frame_no,
                         const std::uint8_t* f) noexcept {
  std::uint64_t h = 1469598103934665603ull ^ frame_no;
  for (std::uint64_t i = 0; i < kFrameSize; ++i) {
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

}  // namespace

FrameImage::FrameImage(std::uint64_t first_frame,
                       std::vector<std::uint8_t> bytes)
    : first_frame_(first_frame), bytes_(std::move(bytes)) {
  if (bytes_.empty() || bytes_.size() % kFrameSize != 0)
    throw std::invalid_argument(
        "FrameImage: size must be a non-zero multiple of the frame size");
  terms_.resize(bytes_.size() / kFrameSize);
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    terms_[i] = frame_term(first_frame_ + i, bytes_.data() + i * kFrameSize);
    digest_ += terms_[i];
  }
}

const std::uint8_t* FrameImage::frame(std::uint64_t frame_no) const noexcept {
  const std::uint64_t i = frame_no - first_frame_;  // wraps below the image
  return i < terms_.size() ? bytes_.data() + i * kFrameSize : nullptr;
}

void PhysicalMemory::set_base(std::shared_ptr<const FrameImage> image) {
  if (has_baseline_)
    throw std::logic_error("PhysicalMemory::set_base: after snapshot()");
  base_ = std::move(image);
}

std::uint32_t PhysicalMemory::alloc_slot(std::uint64_t frame_no) {
  std::uint32_t s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();  // recycled slots were zeroed when freed
    free_slots_.pop_back();
  } else {
    s = static_cast<std::uint32_t>(frame_of_slot_.size());
    frame_of_slot_.push_back(0);
    slot_epoch_.push_back(0);
    arena_.resize(arena_.size() + kFrameSize, 0);
  }
  frame_of_slot_[s] = frame_no;
  slot_of_.emplace(frame_no, s);
  if (const std::uint8_t* b = base_ ? base_->frame(frame_no) : nullptr)
    std::memcpy(arena_.data() + std::size_t{s} * kFrameSize, b, kFrameSize);
  return s;
}

std::uint8_t* PhysicalMemory::frame_for_write(std::uint64_t paddr) {
  const std::uint64_t frame_no = paddr / kFrameSize;
  std::uint32_t s;
  const auto it = slot_of_.find(frame_no);
  if (it == slot_of_.end()) {
    s = alloc_slot(frame_no);
    if (has_baseline_) {
      slot_epoch_[s] = epoch_;  // already dirty; no undo copy needed
      alloc_since_.push_back(s);
    }
  } else {
    s = it->second;
    if (has_baseline_ && slot_epoch_[s] != epoch_) {
      // First write to a baseline frame this epoch: save its pre-write
      // bytes so reset() can play them back.
      slot_epoch_[s] = epoch_;
      undo_slots_.push_back(s);
      const std::uint8_t* src = arena_.data() + std::size_t{s} * kFrameSize;
      undo_data_.insert(undo_data_.end(), src, src + kFrameSize);
    }
  }
  return arena_.data() + std::size_t{s} * kFrameSize;
}

const std::uint8_t* PhysicalMemory::frame_if_present(
    std::uint64_t paddr) const {
  const std::uint64_t frame_no = paddr / kFrameSize;
  const auto it = slot_of_.find(frame_no);
  if (it != slot_of_.end())
    return arena_.data() + std::size_t{it->second} * kFrameSize;
  return base_ ? base_->frame(frame_no) : nullptr;
}

std::uint8_t PhysicalMemory::read8(std::uint64_t paddr) const {
  const std::uint8_t* f = frame_if_present(paddr);
  return f ? f[paddr % kFrameSize] : 0;
}

std::uint64_t PhysicalMemory::read64(std::uint64_t paddr) const {
  const std::uint64_t off = paddr % kFrameSize;
  if (off <= kFrameSize - 8) {  // little-endian, single frame lookup
    const std::uint8_t* f = frame_if_present(paddr);
    if (!f) return 0;
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | f[off + i];
    return v;
  }
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | read8(paddr + static_cast<std::uint64_t>(i));
  return v;
}

void PhysicalMemory::write8(std::uint64_t paddr, std::uint8_t value) {
  frame_for_write(paddr)[paddr % kFrameSize] = value;
}

void PhysicalMemory::write64(std::uint64_t paddr, std::uint64_t value) {
  const std::uint64_t off = paddr % kFrameSize;
  if (off <= kFrameSize - 8) {
    std::uint8_t* f = frame_for_write(paddr);
    for (int i = 0; i < 8; ++i)
      f[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
    return;
  }
  for (int i = 0; i < 8; ++i) {
    write8(paddr + static_cast<std::uint64_t>(i),
           static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void PhysicalMemory::write_bytes(std::uint64_t paddr, const std::uint8_t* data,
                                 std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) write8(paddr + i, data[i]);
}

std::vector<std::uint8_t> PhysicalMemory::read_bytes(std::uint64_t paddr,
                                                     std::size_t len) const {
  std::vector<std::uint8_t> out(len);
  read_into(paddr, out);
  return out;
}

void PhysicalMemory::read_into(std::uint64_t paddr,
                               std::span<std::uint8_t> out) const {
  while (!out.empty()) {
    const std::uint64_t off = paddr % kFrameSize;
    const std::size_t n = std::min<std::size_t>(out.size(), kFrameSize - off);
    if (const std::uint8_t* f = frame_if_present(paddr))
      std::memcpy(out.data(), f + off, n);
    else
      std::memset(out.data(), 0, n);
    paddr += n;
    out = out.subspan(n);
  }
}

std::uint64_t PhysicalMemory::digest() const noexcept {
  // A commutative sum of per-frame terms: slot_of_'s iteration order (and
  // hence allocation history) cannot leak into the value. The base image
  // brings its cached sum; a local frame that shadows one of its frames
  // swaps that frame's term for its own.
  std::uint64_t acc = base_ ? base_->digest() : 0;
  for (const auto& [frame_no, slot] : slot_of_) {
    if (base_ && base_->frame(frame_no)) acc -= base_->term(frame_no);
    acc += frame_term(frame_no,
                      arena_.data() + std::size_t{slot} * kFrameSize);
  }
  return acc;
}

void PhysicalMemory::corrupt_frame_for_test() noexcept {
  // The lowest live frame: the lowest local one, or the image's lowest
  // frame that no local frame shadows, whichever is lower.
  std::optional<std::uint64_t> victim;
  for (const auto& entry : slot_of_)
    if (!victim || entry.first < *victim) victim = entry.first;
  if (base_) {
    const std::uint64_t first = base_->first_frame();
    for (std::uint64_t f = first; f < first + base_->frames(); ++f) {
      if (slot_of_.contains(f)) continue;
      if (!victim || f < *victim) victim = f;
      break;
    }
  }
  if (!victim) return;
  // Flip directly in the arena: no frame_for_write(), no undo entry. A base
  // frame gets a local copy that reset() keeps (it is in no undo list).
  const auto it = slot_of_.find(*victim);
  const std::uint32_t slot =
      it != slot_of_.end() ? it->second : alloc_slot(*victim);
  arena_[std::size_t{slot} * kFrameSize] ^= 0xA5;
}

void PhysicalMemory::snapshot() {
  has_baseline_ = true;
  ++epoch_;
  undo_slots_.clear();
  undo_data_.clear();
  alloc_since_.clear();
}

void PhysicalMemory::reset() {
  if (!has_baseline_)
    throw std::logic_error("PhysicalMemory::reset: no snapshot taken");
  for (std::size_t i = 0; i < undo_slots_.size(); ++i) {
    std::memcpy(arena_.data() + std::size_t{undo_slots_[i]} * kFrameSize,
                undo_data_.data() + i * kFrameSize, kFrameSize);
  }
  for (const std::uint32_t s : alloc_since_) {
    std::memset(arena_.data() + std::size_t{s} * kFrameSize, 0, kFrameSize);
    slot_of_.erase(frame_of_slot_[s]);
    free_slots_.push_back(s);
  }
  undo_slots_.clear();
  undo_data_.clear();
  alloc_since_.clear();
  ++epoch_;
}

}  // namespace whisper::mem
